package cluster

// Coordinator: the crowd repository's routing front door. It holds the
// shard topology, consistent-hashes every tuning problem onto a shard
// (internal/shardring), and serves the same /api/v1 surface as a
// single crowd server by proxying: single-shard requests go to the
// owning shard (writes to its leader, reads to a replica with a
// leader fallback), cross-shard requests fan out and merge (proxy.go).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	mrand "math/rand"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gptunecrowd/internal/crowd"
	"gptunecrowd/internal/obs"
	"gptunecrowd/internal/shardring"
)

// ShardInfo is one shard's membership: the leader plus follower
// replica base URLs. Epoch is the promotion epoch of the adopted
// leadership — the coordinator refuses to re-adopt a leader whose
// (epoch, URL) does not supersede it, so a deposed leader's stale 307
// hints can never win the topology back.
type ShardInfo struct {
	ID       string   `json:"id"`
	Leader   string   `json:"leader"`
	Epoch    uint64   `json:"epoch,omitempty"`
	Replicas []string `json:"replicas,omitempty"`
}

// Topology is the coordinator's routing state. Version increases on
// every membership or leadership change.
type Topology struct {
	Version int         `json:"version"`
	VNodes  int         `json:"vnodes,omitempty"`
	Shards  []ShardInfo `json:"shards"`
}

// CoordinatorConfig configures a Coordinator.
type CoordinatorConfig struct {
	Topology Topology
	// Token gates /api/v1/cluster/join when non-empty.
	Token string
	// Registry receives the cluster_* metric families (nil allocates a
	// private registry).
	Registry *obs.Registry
	// Slog receives routing diagnostics. nil disables logging.
	Slog *slog.Logger
	// HTTP is the client used for shard traffic (nil uses
	// http.DefaultClient).
	HTTP *http.Client
	// ProbeTimeout bounds one health/info probe of a shard node
	// (DefaultProbeTimeout when zero), so a black-holed node costs one
	// deadline, not a hung handler.
	ProbeTimeout time.Duration
	// RetryBaseDelay seeds the jittered exponential backoff between
	// shard-routing retries (DefaultRetryBaseDelay when zero).
	RetryBaseDelay time.Duration
}

// Coordinator routes the public API across shards. It is an
// http.Handler.
type Coordinator struct {
	token        string
	client       *http.Client
	log          *slog.Logger
	reg          *obs.Registry
	metrics      *coordMetrics
	mux          *http.ServeMux
	rr           atomic.Uint64
	probeTimeout time.Duration
	retryBase    time.Duration

	mu   sync.RWMutex
	topo Topology
	ring *shardring.Ring
}

// routeAttempts bounds leader-chasing per shard request.
const routeAttempts = 4

// Routing/probing defaults for CoordinatorConfig zero values.
const (
	// DefaultProbeTimeout bounds one health/info probe of a shard node.
	DefaultProbeTimeout = 2 * time.Second
	// DefaultRetryBaseDelay seeds the jittered exponential backoff
	// between routing retries.
	DefaultRetryBaseDelay = 25 * time.Millisecond
	// retryMaxDelay caps one backoff sleep.
	retryMaxDelay = 1 * time.Second
	// statsProbeWorkers bounds concurrent shard probes in handleStats.
	statsProbeWorkers = 4
)

// jitteredBackoff returns the sleep before retry number attempt
// (0-based): exponential growth from base, capped at retryMaxDelay,
// with full jitter across [d/2, d] so a fleet of coordinator goroutines
// retrying through the same failover window spreads out instead of
// thundering in lockstep.
func jitteredBackoff(base time.Duration, attempt int) time.Duration {
	d := base
	for i := 0; i < attempt && d < retryMaxDelay; i++ {
		d *= 2
	}
	if d > retryMaxDelay {
		d = retryMaxDelay
	}
	half := int64(d / 2)
	return time.Duration(half + mrand.Int63n(half+1))
}

// sleepBackoff sleeps the jittered backoff, bailing early when ctx is
// done. It reports whether the caller may retry.
func sleepBackoff(ctx context.Context, base time.Duration, attempt int) bool {
	t := time.NewTimer(jitteredBackoff(base, attempt))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// NewCoordinator builds a coordinator over the given topology.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	client := cfg.HTTP
	if client == nil {
		// Surface 307s instead of transparently following them:
		// writeToShard turns a redirect into an adoptLeader + retry, so
		// the topology converges on the new leader rather than paying a
		// stale-leader bounce on every write forever.
		client = &http.Client{
			CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
		}
	}
	c := &Coordinator{
		token:        cfg.Token,
		client:       client,
		log:          obs.Or(cfg.Slog),
		reg:          reg,
		probeTimeout: cfg.ProbeTimeout,
		retryBase:    cfg.RetryBaseDelay,
	}
	if c.probeTimeout <= 0 {
		c.probeTimeout = DefaultProbeTimeout
	}
	if c.retryBase <= 0 {
		c.retryBase = DefaultRetryBaseDelay
	}
	if err := c.setTopology(cfg.Topology); err != nil {
		return nil, err
	}
	c.metrics = newCoordMetrics(reg, c)

	mux := http.NewServeMux()
	for _, e := range crowd.Endpoints() {
		mux.HandleFunc(e.Path, e.Guard(c.proxy(e)))
	}
	mux.HandleFunc("/api/v1/cluster/topology", c.handleTopology)
	mux.HandleFunc("/api/v1/cluster/join", c.handleJoin)
	mux.Handle("/metrics", reg.Handler())
	c.mux = mux
	return c, nil
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// Registry exposes the coordinator's metrics registry.
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

func (c *Coordinator) setTopology(topo Topology) error {
	// An empty topology is legal at startup: a coordinator launched
	// without -shards waits for nodes to join before it can route.
	var ring *shardring.Ring
	if len(topo.Shards) > 0 {
		ids := make([]string, len(topo.Shards))
		for i, s := range topo.Shards {
			ids[i] = s.ID
		}
		var err error
		ring, err = shardring.New(shardring.Config{Version: topo.Version, Shards: ids, VNodes: topo.VNodes})
		if err != nil {
			return fmt.Errorf("cluster: topology: %w", err)
		}
	}
	c.mu.Lock()
	c.topo = topo
	c.ring = ring
	c.mu.Unlock()
	return nil
}

// snapshotTopology deep-copies the routing state: the returned shards
// (including their Replicas backing arrays) share nothing with the live
// topology, so callers may read or edit them without holding c.mu.
func (c *Coordinator) snapshotTopology() Topology {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t := c.topo
	t.Shards = make([]ShardInfo, len(c.topo.Shards))
	for i, s := range c.topo.Shards {
		s.Replicas = append([]string(nil), s.Replicas...)
		t.Shards[i] = s
	}
	return t
}

// ownerOf maps a tuning problem onto its owning shard id ("" while the
// topology is still empty).
func (c *Coordinator) ownerOf(problem string) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.ring == nil {
		return ""
	}
	return c.ring.OwnerFor(problem, "")
}

func (c *Coordinator) shardIDs() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ids := make([]string, len(c.topo.Shards))
	for i, s := range c.topo.Shards {
		ids[i] = s.ID
	}
	sort.Strings(ids)
	return ids
}

func (c *Coordinator) shardInfo(id string) (ShardInfo, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, s := range c.topo.Shards {
		if s.ID == id {
			// Deep-copy Replicas: the caller iterates outside the lock
			// while adoptLeader/handleJoin rewrite the live list.
			s.Replicas = append([]string(nil), s.Replicas...)
			return s, true
		}
	}
	return ShardInfo{}, false
}

// adoptLeader records a leadership change for a shard and bumps the
// topology version. The displaced leader is kept as a replica so
// probes keep covering it. Adoption is epoch-fenced: a candidate whose
// (epoch, URL) does not supersede the adopted leadership is refused —
// a deposed leader's stale hints can never win the routing table back.
// It reports whether leader is the shard's adopted leader afterwards.
func (c *Coordinator) adoptLeader(id, leader string, epoch uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.topo.Shards {
		s := &c.topo.Shards[i]
		if s.ID != id {
			continue
		}
		if s.Leader == leader {
			if epoch > s.Epoch {
				s.Epoch = epoch
			}
			return true
		}
		if s.Leader != "" && !leadershipNewer(epoch, leader, s.Epoch, s.Leader) {
			c.log.Info("refused stale leader adoption",
				"shard", id, "candidate", leader, "candidate_epoch", epoch,
				"leader", s.Leader, "epoch", s.Epoch)
			return false
		}
		old := s.Leader
		s.Leader = leader
		s.Epoch = epoch
		// A fresh slice, not in-place filtering: snapshots handed out
		// before this call must never observe the rewrite.
		keep := make([]string, 0, len(s.Replicas)+1)
		for _, r := range s.Replicas {
			if r != leader {
				keep = append(keep, r)
			}
		}
		if old != "" && old != leader {
			keep = append(keep, old)
		}
		s.Replicas = keep
		c.topo.Version++
		c.metrics.failovers.Inc()
		c.log.Info("adopted new shard leader", "shard", id, "leader", leader, "epoch", epoch)
		return true
	}
	return false
}

// shardReply is one proxied response.
type shardReply struct {
	status int
	header http.Header
	body   []byte
}

func (rep *shardReply) leaderHint() string { return rep.header.Get(crowd.ShardLeaderHeader) }

// relay writes a proxied response through unchanged.
func relay(w http.ResponseWriter, rep *shardReply) {
	if ct := rep.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(rep.status)
	w.Write(rep.body)
}

// do posts body to base+path, forwarding the caller's credentials and
// trace id.
func (c *Coordinator) do(orig *http.Request, base, path string, body []byte) (*shardReply, error) {
	return c.doCtx(orig.Context(), orig, base, path, body)
}

// probeDo is do under the per-probe deadline: a black-holed node costs
// one ProbeTimeout instead of hanging the caller.
func (c *Coordinator) probeDo(orig *http.Request, base, path string, body []byte) (*shardReply, error) {
	parent := context.Background()
	if orig != nil {
		parent = orig.Context()
	}
	ctx, cancel := context.WithTimeout(parent, c.probeTimeout)
	defer cancel()
	return c.doCtx(ctx, orig, base, path, body)
}

// doCtx posts body to base+path under ctx. orig may be nil (detector
// traffic has no originating client request).
func (c *Coordinator) doCtx(ctx context.Context, orig *http.Request, base, path string, body []byte) (*shardReply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if orig != nil {
		if k := orig.Header.Get("X-Api-Key"); k != "" {
			req.Header.Set("X-Api-Key", k)
		}
		if tr := orig.Header.Get(obs.TraceHeader); tr != "" {
			req.Header.Set(obs.TraceHeader, tr)
		}
	}
	if c.token != "" && strings.HasPrefix(path, "/api/v1/cluster/") {
		req.Header.Set(TokenHeader, c.token)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, crowd.MaxBodyBytes))
	if err != nil {
		return nil, err
	}
	return &shardReply{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

// nodeInfo probes one node's /api/v1/cluster/info under the probe
// deadline.
func (c *Coordinator) nodeInfo(orig *http.Request, url string) (InfoResponse, bool) {
	var ni InfoResponse
	if url == "" {
		return ni, false
	}
	rep, err := c.probeDo(orig, url, "/api/v1/cluster/info", []byte("{}"))
	if err != nil || rep.status != http.StatusOK {
		return ni, false
	}
	if json.Unmarshal(rep.body, &ni) != nil {
		return ni, false
	}
	return ni, true
}

// probeLeader asks every known node of a shard who leads and returns
// the best self-reported leader — the one whose (epoch, URL) supersedes
// all others — plus its epoch. Second-hand hints ("my leader is X")
// from followers are verified by probing X directly, never trusted
// blind: an epoch-less hint could otherwise re-adopt a deposed leader.
func (c *Coordinator) probeLeader(orig *http.Request, id string) (string, uint64) {
	info, ok := c.shardInfo(id)
	if !ok {
		return "", 0
	}
	candidates := append([]string{info.Leader}, info.Replicas...)
	probed := make(map[string]bool)
	var hints []string
	bestURL, bestEpoch := "", uint64(0)
	consider := func(url string, ni InfoResponse) {
		if ni.Role != RoleLeader {
			return
		}
		if ni.Advertise != "" {
			url = ni.Advertise
		}
		if bestURL == "" || leadershipNewer(ni.Epoch, url, bestEpoch, bestURL) {
			bestURL, bestEpoch = url, ni.Epoch
		}
	}
	for _, url := range candidates {
		if url == "" || probed[url] {
			continue
		}
		probed[url] = true
		ni, ok := c.nodeInfo(orig, url)
		if !ok {
			continue
		}
		consider(url, ni)
		if ni.Role != RoleLeader && ni.Leader != "" {
			hints = append(hints, ni.Leader)
		}
	}
	for _, url := range hints {
		if probed[url] {
			continue
		}
		probed[url] = true
		if ni, ok := c.nodeInfo(orig, url); ok {
			consider(url, ni)
		}
	}
	return bestURL, bestEpoch
}

// writeToShard sends a mutating request to the shard's leader, chasing
// leadership changes bounded by routeAttempts: 307/421 hints are
// verified by an info probe (adoption is epoch-fenced) and failed
// attempts back off with jittered exponential delays so a failover
// window does not trigger a synchronized retry herd.
func (c *Coordinator) writeToShard(orig *http.Request, id, path string, body []byte) (*shardReply, error) {
	info, ok := c.shardInfo(id)
	if !ok {
		return nil, fmt.Errorf("cluster: unknown shard %q", id)
	}
	url := info.Leader
	var lastErr error
	for attempt := 0; attempt < routeAttempts; attempt++ {
		if attempt > 0 && !sleepBackoff(orig.Context(), c.retryBase, attempt-1) {
			break
		}
		if url == "" {
			probedURL, probedEpoch := c.probeLeader(orig, id)
			if probedURL == "" {
				lastErr = fmt.Errorf("cluster: no reachable leader for shard %s", id)
				continue
			}
			url = probedURL
			c.adoptLeader(id, probedURL, probedEpoch)
		}
		rep, err := c.do(orig, url, path, body)
		if err != nil {
			lastErr = err
			c.metrics.retries.Inc()
			url = "" // probe on the next attempt
			continue
		}
		if rep.status == http.StatusTemporaryRedirect || rep.status == http.StatusMisdirectedRequest {
			c.metrics.retries.Inc()
			target := rep.leaderHint()
			if target == "" || target == url {
				url = ""
				continue
			}
			// Verify the hint before trusting it: only a node that
			// self-reports leadership (with its epoch) is adopted.
			if ni, ok := c.nodeInfo(orig, target); ok && ni.Role == RoleLeader {
				if ni.Advertise != "" {
					target = ni.Advertise
				}
				c.adoptLeader(id, target, ni.Epoch)
				url = target
				continue
			}
			url = ""
			continue
		}
		return rep, nil
	}
	return nil, lastErr
}

// readFromShard serves a read from the shard, preferring follower
// replicas (round-robin) and falling back to the leader when replicas
// are stale (412), redirecting, or down.
func (c *Coordinator) readFromShard(orig *http.Request, id, path string, body []byte) (*shardReply, error) {
	info, ok := c.shardInfo(id)
	if !ok {
		return nil, fmt.Errorf("cluster: unknown shard %q", id)
	}
	var order []string
	if n := len(info.Replicas); n > 0 {
		start := int(c.rr.Add(1)) % n
		for i := 0; i < n; i++ {
			order = append(order, info.Replicas[(start+i)%n])
		}
	}
	if info.Leader != "" {
		order = append(order, info.Leader)
	}
	var lastErr error
	for _, url := range order {
		rep, err := c.do(orig, url, path, body)
		if err != nil {
			lastErr = err
			c.metrics.retries.Inc()
			continue
		}
		if rep.status == http.StatusPreconditionFailed {
			c.metrics.staleReads.Inc()
			continue
		}
		if rep.status == http.StatusTemporaryRedirect || rep.status == http.StatusMisdirectedRequest {
			c.metrics.retries.Inc()
			continue
		}
		return rep, nil
	}
	// Last resort: the write path's leader chase.
	rep, err := c.writeToShard(orig, id, path, body)
	if err != nil {
		if lastErr != nil {
			return nil, lastErr
		}
		return nil, err
	}
	return rep, nil
}

// ReplicaStatus is one replica's reachability in the stats view.
type ReplicaStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Role    Role   `json:"role,omitempty"`
}

// ShardStatus is one shard's health in the stats view.
type ShardStatus struct {
	ID       string             `json:"id"`
	Leader   string             `json:"leader"`
	Healthy  bool               `json:"healthy"`
	Replicas []ReplicaStatus    `json:"replicas,omitempty"`
	Logs     map[string]LogInfo `json:"logs,omitempty"`
	// Stats is the leader's full /api/v1/stats snapshot, passed through
	// untouched.
	Stats json.RawMessage `json:"stats,omitempty"`
}

// ClusterStats is the coordinator's /api/v1/stats response.
type ClusterStats struct {
	TopologyVersion int           `json:"topology_version"`
	Shards          []ShardStatus `json:"shards"`
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	crowd.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleStats reports per-shard health: leader reachability, replica
// roles, log replication positions, and the leader's own stats
// snapshot. Shard probes fan out under a bounded worker group and
// every probe runs under the probe deadline, so one black-holed node
// delays the response by one timeout instead of stalling it serially.
func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	c.metrics.fanouts.Inc()
	topo := c.snapshotTopology()
	out := ClusterStats{TopologyVersion: topo.Version, Shards: make([]ShardStatus, len(topo.Shards))}
	sort.Slice(topo.Shards, func(i, j int) bool { return topo.Shards[i].ID < topo.Shards[j].ID })
	sem := make(chan struct{}, statsProbeWorkers)
	var wg sync.WaitGroup
	for i := range topo.Shards {
		wg.Add(1)
		go func(i int, s ShardInfo) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out.Shards[i] = c.shardStatus(r, s)
		}(i, topo.Shards[i])
	}
	wg.Wait()
	crowd.WriteJSON(w, http.StatusOK, out)
}

// shardStatus probes one shard for the stats view (every probe under
// the probe deadline).
func (c *Coordinator) shardStatus(r *http.Request, s ShardInfo) ShardStatus {
	st := ShardStatus{ID: s.ID, Leader: s.Leader}
	if info, ok := c.nodeInfo(r, s.Leader); ok && info.Role == RoleLeader {
		st.Healthy = true
		st.Logs = info.Logs
	}
	if !st.Healthy {
		// The recorded leader is gone or demoted: a promoted follower
		// self-reports leadership — adopt it now rather than waiting
		// for the next write to discover it.
		if leader, epoch := c.probeLeader(r, s.ID); leader != "" && leader != s.Leader {
			if c.adoptLeader(s.ID, leader, epoch) {
				st.Leader = leader
				if info, ok := c.nodeInfo(r, leader); ok && info.Role == RoleLeader {
					st.Healthy = true
					st.Logs = info.Logs
					if cur, ok := c.shardInfo(s.ID); ok {
						s = cur
					}
				}
			}
		}
	}
	if st.Healthy {
		if rep, err := c.probeDo(r, st.Leader, crowd.PathStats, []byte("{}")); err == nil && rep.status == http.StatusOK {
			st.Stats = json.RawMessage(rep.body)
		}
	}
	for _, ru := range s.Replicas {
		rs := ReplicaStatus{URL: ru}
		if info, ok := c.nodeInfo(r, ru); ok {
			rs.Healthy = true
			rs.Role = info.Role
		}
		st.Replicas = append(st.Replicas, rs)
	}
	return st
}

func (c *Coordinator) handleTopology(w http.ResponseWriter, r *http.Request) {
	crowd.WriteJSON(w, http.StatusOK, c.snapshotTopology())
}

// joinRequest registers a node with the coordinator.
type joinRequest struct {
	Shard string `json:"shard"`
	URL   string `json:"url"`
	Role  Role   `json:"role"`
}

// handleJoin adds a node to the topology: leaders create or take over
// their shard (rebuilding the ring when the shard set grows), followers
// append to the replica list.
func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	if c.token != "" && r.Header.Get(TokenHeader) != c.token {
		crowd.WriteErr(w, http.StatusUnauthorized, "bad_cluster_token", "cluster token required")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, crowd.MaxBodyBytes)
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req joinRequest
	if err := json.Unmarshal(body, &req); err != nil || req.Shard == "" || req.URL == "" {
		crowd.WriteErr(w, http.StatusBadRequest, "", "join needs shard and url")
		return
	}
	topo := c.snapshotTopology()
	found := false
	for i := range topo.Shards {
		s := &topo.Shards[i]
		if s.ID != req.Shard {
			continue
		}
		found = true
		if req.Role == RoleLeader {
			if s.Leader != req.URL {
				// topo is a private copy, so filtering in place is safe.
				s.Replicas = slices.DeleteFunc(s.Replicas, func(ru string) bool { return ru == req.URL })
				if s.Leader != "" {
					s.Replicas = append(s.Replicas, s.Leader)
				}
				s.Leader = req.URL
			}
		} else if s.Leader != req.URL && !slices.Contains(s.Replicas, req.URL) {
			s.Replicas = append(s.Replicas, req.URL)
		}
	}
	if !found {
		info := ShardInfo{ID: req.Shard}
		if req.Role == RoleLeader {
			info.Leader = req.URL
		} else {
			info.Replicas = []string{req.URL}
		}
		topo.Shards = append(topo.Shards, info)
	}
	topo.Version++
	if err := c.setTopology(topo); err != nil {
		crowd.WriteErr(w, http.StatusBadRequest, "", "%v", err)
		return
	}
	c.log.Info("node joined", "shard", req.Shard, "url", req.URL, "role", string(req.Role))
	crowd.WriteJSON(w, http.StatusOK, c.snapshotTopology())
}
