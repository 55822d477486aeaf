// Package cluster shards and replicates the crowd repository. A Node
// wraps one crowd.Server and pins its five state machines (the users,
// func_evals, surrogate_models and quarantine collections plus the task
// pool) onto internal/replog logs; a shard is one leader Node streaming
// those logs to follower Nodes; a Coordinator consistent-hashes every
// tuning problem onto a shard (internal/shardring) and routes the
// public /api/v1 surface accordingly.
//
// The replication contract is the one the replog/historydb/taskpool
// layers already prove in isolation: log records are physical (ids and
// sequence numbers pre-assigned by the leader), so a follower that
// applies the same records converges on byte-identical state, and a
// write is acknowledged to the client only once every live follower has
// applied it (the commit barrier). Killing a leader therefore never
// loses an acknowledged sample — any follower can be promoted and
// carries the exact prefix the clients observed.
package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"gptunecrowd/internal/crowd"
	"gptunecrowd/internal/replog"
)

// ErrStaleEpoch reports a promotion (or demotion) carrying an epoch at
// or below the node's current one: some other node already won that
// epoch, and the caller must re-read the topology before retrying.
var ErrStaleEpoch = errors.New("cluster: stale promotion epoch")

// Defaults for NodeConfig zero values.
const (
	// DefaultCommitTimeout bounds how long an acknowledged write may
	// wait for follower replication before the leader gives up with 503.
	DefaultCommitTimeout = 5 * time.Second
)

// TokenHeader authenticates intra-cluster requests (replication apply,
// promote, join) when the deployment sets a shared token.
const TokenHeader = "X-Cluster-Token"

// Role is a node's position in its shard.
type Role string

const (
	RoleLeader   Role = "leader"
	RoleFollower Role = "follower"
)

// NodeConfig configures one cluster node.
type NodeConfig struct {
	// Shard is the shard id this node serves (e.g. "s0").
	Shard string
	// DataDir holds the replicated logs (one subdirectory per state
	// machine). Empty runs memory-only — tests and ephemeral replicas.
	DataDir string
	// Leader starts the node as its shard's leader. Followers become
	// leaders only via Promote.
	Leader bool
	// Advertise is the base URL other nodes and clients reach this node
	// at (e.g. "http://10.0.0.3:8080"). Leaders stamp it on replication
	// batches so followers can point redirected writers at them.
	Advertise string
	// Token, when non-empty, gates the intra-cluster endpoints: apply,
	// promote and join requests must carry it in X-Cluster-Token.
	Token string
	// CommitTimeout: see the package defaults.
	CommitTimeout time.Duration
	// HeartbeatInterval bounds how long a healthy follower goes without a
	// replication push when the shard is idle (DefaultHeartbeatInterval
	// when zero).
	HeartbeatInterval time.Duration
	// PushTimeout bounds one replication round trip (DefaultPushTimeout
	// when zero).
	PushTimeout time.Duration
	// InternalClient issues this node's outbound intra-cluster requests:
	// replication pushes created via the attach endpoint
	// (http.DefaultClient when nil). Chaos tests route it through a
	// fault-injecting transport.
	InternalClient *http.Client
	// SegmentMaxRecords caps records per log segment file (replog
	// default when zero).
	SegmentMaxRecords int
	// Crowd configures the wrapped crowd.Server.
	Crowd crowd.Config
}

// Node is one replica of one shard: a crowd.Server whose durable state
// machines are driven by replicated logs, plus the role logic — a
// leader serves reads and writes and streams the writes to followers;
// a follower applies the stream and bounces every public read and
// write to the leader with 307 + X-Shard-Leader.
type Node struct {
	cfg NodeConfig
	srv *crowd.Server

	mu          sync.Mutex
	role        Role
	epoch       uint64 // promotion epoch of the leadership this node holds or follows
	advertise   string
	leaderURL   string        // follower: last leader that contacted us
	replicators []*Replicator // leader: one per follower
	needResync  bool          // demoted leader awaiting truncation resync (fenced)

	// applyMu serializes replication applies against each other and
	// against promotion (promotion fences the old leader's stream).
	applyMu sync.Mutex

	logs *logSet

	metrics *nodeMetrics
	mux     *http.ServeMux
}

// NewNode opens (or creates) the node's replicated logs, replays them
// into a fresh crowd.Server, and returns the node ready to serve.
func NewNode(cfg NodeConfig) (*Node, error) {
	cfg = cfg.withDefaults()
	srv := crowd.NewServerWith(cfg.Crowd)
	logs, err := openLogSet(srv, cfg.DataDir, replog.Options{SegmentMaxRecords: cfg.SegmentMaxRecords})
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:       cfg,
		srv:       srv,
		role:      RoleFollower,
		advertise: cfg.Advertise,
		logs:      logs,
	}
	if cfg.Leader {
		n.role = RoleLeader
	}
	if err := srv.RebuildUserIndex(); err != nil {
		logs.close()
		return nil, err
	}
	if err := srv.RebuildTrustState(); err != nil {
		logs.close()
		return nil, err
	}
	// The promotion epoch survives restarts as replog term metadata. A
	// configured leader starts at epoch 1 so a follower that was promoted
	// past it can always fence it.
	n.epoch = logs.term()
	if cfg.Leader && n.epoch == 0 {
		n.epoch = 1
	}
	if err := logs.setTerm(n.epoch); err != nil {
		logs.close()
		return nil, err
	}
	n.metrics = newNodeMetrics(srv.Registry(), n)

	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/cluster/apply", n.handleApply)
	mux.HandleFunc("/api/v1/cluster/info", n.handleInfo)
	mux.HandleFunc("/api/v1/cluster/promote", n.handlePromote)
	mux.HandleFunc("/api/v1/cluster/demote", n.handleDemote)
	mux.HandleFunc("/api/v1/cluster/attach", n.handleAttach)
	mux.HandleFunc("/api/v1/readyz", n.handleReadyz)
	for _, e := range crowd.Endpoints() {
		mux.HandleFunc(e.Path, e.Guard(n.route(e.Class)))
	}
	mux.Handle("/", srv) // /metrics and the server's own 404s
	n.mux = mux
	return n, nil
}

// Close stops replication to followers and closes the logs.
func (n *Node) Close() error {
	n.mu.Lock()
	reps := append([]*Replicator(nil), n.replicators...)
	n.replicators = nil
	n.mu.Unlock()
	for _, r := range reps {
		r.Stop()
	}
	return n.logs.close()
}

// Server exposes the wrapped crowd.Server (for policy registration and
// direct inspection in tests and the daemon).
func (n *Node) Server() *crowd.Server { return n.srv }

// Role returns the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Epoch returns the promotion epoch of the leadership this node holds
// (as a leader) or follows.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// Fenced reports whether the node is a demoted leader still awaiting a
// truncation resync from the current leader: its log may carry a
// diverged tail, so it must not serve reads or be promoted if any
// in-sync replica is available.
func (n *Node) Fenced() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.needResync
}

// leadershipNewer reports whether claim (epoch, url) strictly
// supersedes incumbent (curEpoch, curURL): the higher epoch wins, and an
// epoch tie — two detectors promoting different followers to the same
// epoch — breaks deterministically on the lexicographically greater
// advertise URL, so dueling promotions always converge on one winner.
func leadershipNewer(epoch uint64, url string, curEpoch uint64, curURL string) bool {
	if epoch != curEpoch {
		return epoch > curEpoch
	}
	return url > curURL
}

// SetAdvertise records the node's externally reachable base URL (used
// when it is only known after the listener binds, as with test servers).
func (n *Node) SetAdvertise(url string) {
	n.mu.Lock()
	n.advertise = url
	n.mu.Unlock()
}

// Advertise returns the node's advertised base URL.
func (n *Node) Advertise() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.advertise
}

// LeaderURL returns the best-known leader base URL: the node's own
// advertise address when it leads, otherwise the last leader that
// replicated to it.
func (n *Node) LeaderURL() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == RoleLeader {
		return n.advertise
	}
	return n.leaderURL
}

// Log returns the named replicated log (nil when unknown).
func (n *Node) Log(name string) *replog.Log { return n.logs.log(name) }

// EachLog visits the node's replicated state machines — log name and
// journal — in apply order.
func (n *Node) EachLog(fn func(name string, j *replog.Journal)) { n.logs.each(fn) }

// CompactAll folds every replicated log down to a snapshot of current
// state (the daemon's periodic flush).
func (n *Node) CompactAll() error { return n.logs.compact() }

// withDefaults resolves the zero values to the package defaults.
func (c NodeConfig) withDefaults() NodeConfig {
	def := func(d *time.Duration, v time.Duration) {
		if *d <= 0 {
			*d = v
		}
	}
	def(&c.CommitTimeout, DefaultCommitTimeout)
	def(&c.HeartbeatInterval, DefaultHeartbeatInterval)
	def(&c.PushTimeout, DefaultPushTimeout)
	if c.InternalClient == nil {
		c.InternalClient = http.DefaultClient
	}
	return c
}

// ServeHTTP implements http.Handler.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) { n.mux.ServeHTTP(w, r) }

// route is the role gate in front of the wrapped crowd.Server, resolved
// per row from its Class: writes and reads run on the leader alone and
// bounce off followers; writes also run behind the commit barrier and
// are refused by a node whose journal failed; local diagnostics are
// always served.
func (n *Node) route(class crowd.Class) http.HandlerFunc {
	switch class {
	case crowd.ClassWrite:
		return func(w http.ResponseWriter, r *http.Request) {
			if n.journalFailed(w) {
				return
			}
			if n.Role() != RoleLeader {
				n.redirectToLeader(w, r)
				return
			}
			n.serveWriteBarrier(w, r)
		}
	case crowd.ClassRead:
		return func(w http.ResponseWriter, r *http.Request) {
			if n.Role() != RoleLeader {
				n.redirectToLeader(w, r)
				return
			}
			n.srv.ServeHTTP(w, r)
		}
	}
	return n.srv.ServeHTTP
}

// redirectToLeader bounces a request off a follower: 307 with the leader
// address when known, 421 when the follower has never heard from one.
func (n *Node) redirectToLeader(w http.ResponseWriter, r *http.Request) {
	leader := n.LeaderURL()
	if leader == "" {
		crowd.WriteErr(w, http.StatusMisdirectedRequest, "wrong_shard",
			"follower has no known leader for shard %s", n.cfg.Shard)
		return
	}
	w.Header().Set(crowd.ShardLeaderHeader, leader)
	w.Header().Set("Location", leader+r.URL.Path)
	crowd.WriteErr(w, http.StatusTemporaryRedirect, "wrong_shard",
		"shard %s is served by the leader at %s", n.cfg.Shard, leader)
}

// journalFailed is the fail-stop gate: once a journal has failed a log
// write the node's state is ahead of its log, so it stops leading and
// is fenced like any deposed leader (only a restart makes it whole),
// reports not-ready, and — when w is set — answers 503 journal_failed.
// It reports whether it did. The supervisor sees a shard without a
// leader and promotes an in-sync follower, which holds every write
// that was acknowledged.
func (n *Node) journalFailed(w http.ResponseWriter) bool {
	err := n.logs.err()
	if err == nil {
		return false
	}
	n.stepDown("", 0)
	n.mu.Lock()
	n.needResync = true // a follower too: never a promotion candidate
	n.mu.Unlock()
	if w != nil {
		n.metrics.journalErrors.Inc()
		crowd.WriteErr(w, http.StatusServiceUnavailable, "journal_failed",
			"not kept: %v; this node accepts nothing until restarted", err)
	}
	return true
}

// serveWriteBarrier runs a mutating request on the leader and holds the
// response until every live follower has applied the mutation. The
// response is buffered so a failed journal or a commit timeout can
// still turn into a clean 503 — the client retries, and record
// idempotency (batch ids, physical upserts) makes the replay safe.
func (n *Node) serveWriteBarrier(w http.ResponseWriter, r *http.Request) {
	rec := &bufferedResponse{header: make(http.Header)}
	n.srv.ServeHTTP(rec, r)
	// Whatever the handler answered, a mutation the journal did not keep
	// is never acknowledged.
	if n.journalFailed(w) {
		return
	}
	if rec.status >= 200 && rec.status < 300 {
		if !n.waitCommitted(n.logs.uncommitted()) {
			n.metrics.commitTimeouts.Inc()
			crowd.WriteErr(w, http.StatusServiceUnavailable, "commit_timeout",
				"write applied locally but not replicated within %s; retry", n.cfg.CommitTimeout)
			return
		}
		// Ack-time leadership re-check: if a promotion fenced this node
		// while the barrier waited, the commit above may have been a solo
		// self-commit the new leader never saw. Never acknowledge it —
		// bounce the client to the promoted node and let the idempotent
		// retry land there.
		if n.Role() != RoleLeader {
			n.redirectToLeader(w, r)
			return
		}
	}
	rec.flush(w)
}

// waitCommitted blocks until every target log index is committed (all
// live followers applied it) or the commit timeout passes. With no live
// followers the recompute commits everything immediately — a shard of
// one acknowledges alone, exactly like the single-node server.
func (n *Node) waitCommitted(targets map[string]uint64) bool {
	if len(targets) == 0 {
		return true
	}
	n.kickReplicators()
	n.recomputeCommit()
	done := make(chan struct{})
	t := time.AfterFunc(n.cfg.CommitTimeout, func() { close(done) })
	defer t.Stop()
	return n.logs.waitCommitted(targets, done)
}

// kickReplicators nudges every replicator loop to push now rather than
// at its next heartbeat.
func (n *Node) kickReplicators() {
	n.mu.Lock()
	reps := append([]*Replicator(nil), n.replicators...)
	n.mu.Unlock()
	for _, r := range reps {
		r.kick()
	}
}

// recomputeCommit advances each log's commit index to the minimum
// acknowledged index across quorum members. A dead follower drops out
// (the log head self-commits when none are live — a shard of one
// acknowledges alone), but a fenced follower stays counted at its
// frozen acknowledged position: fencing means another node was
// promoted, so a stale leader must never self-commit writes the new
// leader does not carry.
func (n *Node) recomputeCommit() {
	n.mu.Lock()
	var quorum []*Replicator
	for _, r := range n.replicators {
		if r.Alive() || r.isFenced() {
			quorum = append(quorum, r)
		}
	}
	n.mu.Unlock()
	n.logs.commitAcked(quorum)
}

// stepDown demotes a stale leader after its leadership was superseded —
// a follower fenced its stream with 409, a higher-epoch leader's push
// arrived, or the detector demoted it explicitly. The node reverts to
// follower at the superseding epoch and starts bouncing writes — when
// the superseder identified itself, straight to the new leader. The
// replication loops are signalled to exit without waiting (the caller
// may be one of them), but the fenced replicators stay registered so
// recomputeCommit keeps capping the commit index at their frozen
// acknowledged positions; an in-flight write barrier then times out
// with a clean 503 instead of acknowledging a write the new leader
// will never carry. The demoted log may hold an appended-but-unacked
// tail the new leader never saw, so the node marks itself fenced and
// rejoins only through a truncation resync.
func (n *Node) stepDown(newLeader string, newEpoch uint64) {
	n.mu.Lock()
	if n.role != RoleLeader {
		n.mu.Unlock()
		return
	}
	n.role = RoleFollower
	n.needResync = true
	if newLeader != "" {
		n.leaderURL = newLeader
	}
	if newEpoch > n.epoch {
		n.epoch = newEpoch
	}
	epoch := n.epoch
	reps := append([]*Replicator(nil), n.replicators...)
	n.mu.Unlock()
	n.logs.setTerm(epoch)
	n.metrics.stepDowns.Inc()
	for _, r := range reps {
		r.signalStop()
	}
}

// PromoteEpoch turns a follower into its shard's leader: fence the old
// leader's replication stream, self-commit every log (the promoted
// state IS the acknowledged state — the barrier guaranteed acked
// writes reached us), and rebuild the derived in-memory state the
// apply path defers.
//
// epoch is the promotion epoch the caller claims (the detector's CAS
// token): it must exceed the node's current epoch or the promotion
// fails with ErrStaleEpoch — two detectors racing to promote different
// followers therefore resolve deterministically, the higher epoch wins
// and the loser steps down on first contact. epoch 0 self-assigns
// current+1 (the manual operator path). The achieved epoch is returned.
func (n *Node) PromoteEpoch(epoch uint64) (uint64, error) {
	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	if err := n.logs.err(); err != nil {
		return n.Epoch(), err
	}
	n.mu.Lock()
	cur := n.epoch
	if epoch == 0 {
		epoch = cur + 1
	}
	if epoch <= cur {
		n.mu.Unlock()
		return cur, fmt.Errorf("%w: at epoch %d, promotion asked for %d", ErrStaleEpoch, cur, epoch)
	}
	n.role = RoleLeader
	n.epoch = epoch
	n.leaderURL = ""
	n.needResync = false
	// A re-promoted node starts with a fresh follower set: replicators
	// left over from an earlier (possibly fenced) term would otherwise
	// cap the commit index forever.
	reps := n.replicators
	n.replicators = nil
	n.mu.Unlock()
	for _, r := range reps {
		r.signalStop()
	}
	if err := n.logs.setTerm(epoch); err != nil {
		return epoch, err
	}
	n.logs.commitAcked(nil)
	n.metrics.promotions.Inc()
	if err := n.srv.RebuildUserIndex(); err != nil {
		return epoch, err
	}
	return epoch, n.srv.RebuildTrustState()
}

// Demote steps a (possibly stale) leader down in favor of newLeader at
// newEpoch — the detector's rejoin path for a recovered old leader. A
// node that is already a follower just adopts the newer leadership; a
// claim that does not supersede the node's current epoch is
// ErrStaleEpoch.
func (n *Node) Demote(newLeader string, newEpoch uint64) error {
	n.mu.Lock()
	role, cur, adv := n.role, n.epoch, n.advertise
	if role == RoleLeader {
		if !leadershipNewer(newEpoch, newLeader, cur, adv) {
			n.mu.Unlock()
			return fmt.Errorf("%w: leading at epoch %d, demotion claims %d (%s)", ErrStaleEpoch, cur, newEpoch, newLeader)
		}
		n.mu.Unlock()
		n.stepDown(newLeader, newEpoch)
		return nil
	}
	if newEpoch < cur {
		n.mu.Unlock()
		return fmt.Errorf("%w: following epoch %d, demotion claims %d", ErrStaleEpoch, cur, newEpoch)
	}
	n.leaderURL = newLeader
	if newEpoch > n.epoch {
		n.epoch = newEpoch
	}
	epoch := n.epoch
	n.mu.Unlock()
	return n.logs.setTerm(epoch)
}

// checkToken enforces the shared cluster secret on intra-cluster
// endpoints.
func (n *Node) checkToken(w http.ResponseWriter, r *http.Request) bool {
	if n.cfg.Token != "" && r.Header.Get(TokenHeader) != n.cfg.Token {
		crowd.WriteErr(w, http.StatusUnauthorized, "bad_cluster_token", "cluster token required")
		return false
	}
	return true
}

func (n *Node) handlePromote(w http.ResponseWriter, r *http.Request) {
	if !n.checkToken(w, r) {
		return
	}
	// Body is optional: {"epoch": N} is the detector's CAS form, an
	// empty body is the operator form (self-assign current+1).
	var body struct {
		Epoch uint64 `json:"epoch"`
	}
	if r.Body != nil {
		json.NewDecoder(r.Body).Decode(&body)
	}
	_, err := n.PromoteEpoch(body.Epoch)
	n.writeRoleChange(w, "promote", err)
}

// writeRoleChange answers a promote or demote: the node's new position,
// 409 stale_epoch naming the leadership that outranks the claim, or 500.
func (n *Node) writeRoleChange(w http.ResponseWriter, op string, err error) {
	switch {
	case err == nil:
		crowd.WriteJSON(w, http.StatusOK, map[string]interface{}{"role": string(n.Role()), "epoch": n.Epoch()})
	case errors.Is(err, ErrStaleEpoch):
		crowd.WriteJSON(w, http.StatusConflict, fencedBody{
			Error: err.Error(), Code: "stale_epoch",
			Epoch: n.Epoch(), Leader: n.LeaderURL(),
		})
	default:
		crowd.WriteErr(w, http.StatusInternalServerError, op+"_failed", "%v", err)
	}
}

// handleDemote steps a (possibly recovered stale) leader down in favor
// of the named leadership — the detector's rejoin path before it
// re-attaches the node as a follower.
func (n *Node) handleDemote(w http.ResponseWriter, r *http.Request) {
	if !n.checkToken(w, r) {
		return
	}
	var body struct {
		Leader string `json:"leader"`
		Epoch  uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		crowd.WriteErr(w, http.StatusBadRequest, "bad_demote", "bad demote body: %v", err)
		return
	}
	n.writeRoleChange(w, "demote", n.Demote(body.Leader, body.Epoch))
}

// handleAttach asks this (leader) node to start replicating to a
// follower — the detector's rejoin path for recovered replicas.
// Idempotent per follower URL: an already-registered replicator keeps
// retrying a dead follower on its own, so re-attaching is a no-op.
func (n *Node) handleAttach(w http.ResponseWriter, r *http.Request) {
	if !n.checkToken(w, r) {
		return
	}
	var body struct {
		Follower string `json:"follower"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.Follower == "" {
		crowd.WriteErr(w, http.StatusBadRequest, "bad_attach", "attach body needs a follower URL")
		return
	}
	if n.Role() != RoleLeader {
		n.writeFenced(w, n.Epoch(), n.LeaderURL())
		return
	}
	url := strings.TrimRight(body.Follower, "/")
	exists := slices.Contains(n.Followers(), url)
	if !exists {
		n.AttachFollower(url, nil)
	}
	crowd.WriteJSON(w, http.StatusOK, map[string]interface{}{"attached": url, "existing": exists})
}

// handleReadyz is the readiness probe: distinguishes a usable node
// (leader, or a follower that knows its leader) from one that is merely
// up (fenced or leaderless follower, failed journal), so load balancers
// and the failure detector can route around it.
func (n *Node) handleReadyz(w http.ResponseWriter, r *http.Request) {
	failed := n.journalFailed(nil)
	n.mu.Lock()
	role, epoch, fenced, leader := n.role, n.epoch, n.needResync, n.leaderURL
	n.mu.Unlock()
	out := struct {
		State  string `json:"state"`
		Role   Role   `json:"role"`
		Epoch  uint64 `json:"epoch"`
		Leader string `json:"leader,omitempty"`
	}{Role: role, Epoch: epoch, Leader: leader}
	status := http.StatusServiceUnavailable
	switch {
	case failed:
		out.State = "journal_failed"
	case role == RoleLeader:
		out.State, out.Leader, status = "leader", "", http.StatusOK
	case fenced:
		out.State = "fenced"
	case leader == "":
		out.State = "no_leader"
	default:
		out.State, status = "follower", http.StatusOK
	}
	crowd.WriteJSON(w, status, out)
}

// writeFenced answers an intra-cluster request with 409: the caller's
// leadership claim is older than the one this node answers to. The body
// names that leadership so the fenced caller can step down toward it.
func (n *Node) writeFenced(w http.ResponseWriter, epoch uint64, leader string) {
	if leader != "" {
		w.Header().Set(crowd.ShardLeaderHeader, leader)
	}
	crowd.WriteJSON(w, http.StatusConflict, fencedBody{
		Error:  fmt.Sprintf("superseded by leadership epoch %d", epoch),
		Code:   "fenced",
		Epoch:  epoch,
		Leader: leader,
	})
}

// InfoResponse is a node's self-description (/api/v1/cluster/info).
type InfoResponse struct {
	Shard     string             `json:"shard"`
	Role      Role               `json:"role"`
	Epoch     uint64             `json:"epoch"`
	Advertise string             `json:"advertise,omitempty"`
	Leader    string             `json:"leader,omitempty"`
	Fenced    bool               `json:"fenced,omitempty"`
	Logs      map[string]LogInfo `json:"logs"`
}

func (n *Node) handleInfo(w http.ResponseWriter, r *http.Request) {
	n.journalFailed(nil)
	n.mu.Lock()
	role, epoch, adv, fenced := n.role, n.epoch, n.advertise, n.needResync
	n.mu.Unlock()
	info := InfoResponse{
		Shard:     n.cfg.Shard,
		Role:      role,
		Epoch:     epoch,
		Advertise: adv,
		Leader:    n.LeaderURL(),
		Fenced:    fenced,
		Logs:      n.logs.info(),
	}
	crowd.WriteJSON(w, http.StatusOK, info)
}

// handleApply is the follower side of replication: decide whether this
// push may be applied, then hand its batches to the log set, which
// applies them idempotently and acknowledges the new positions.
//
// The epoch gate runs first: a push from a leadership older than the
// one this node holds or follows is fenced with 409 (the pusher steps
// down), and a push from a strictly newer leadership demotes this node
// if it thought itself leader. A demoted leader's log may carry an
// appended tail the new leader never acknowledged, so before applying
// anything the handler checks for divergence — the fenced flag, or
// logs that differ from the leader's — and answers Resync:true; the
// leader then re-sends everything as Force batches, which rebuild each
// machine and log from the leader's snapshot.
func (n *Node) handleApply(w http.ResponseWriter, r *http.Request) {
	if !n.checkToken(w, r) {
		return
	}
	// A replica that cannot log is a dead replica: the 503 counts as a
	// push failure and the leader drops it from the commit quorum.
	if n.journalFailed(w) {
		return
	}
	var req applyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		crowd.WriteErr(w, http.StatusBadRequest, "bad_apply", "bad apply body: %v", err)
		return
	}
	if req.Shard != n.cfg.Shard {
		crowd.WriteErr(w, http.StatusMisdirectedRequest, "wrong_shard",
			"apply for shard %q reached node of shard %q", req.Shard, n.cfg.Shard)
		return
	}
	n.mu.Lock()
	role, cur, curLeader, adv := n.role, n.epoch, n.leaderURL, n.advertise
	n.mu.Unlock()
	if role == RoleLeader {
		if !leadershipNewer(req.Epoch, req.Leader, cur, adv) {
			// Fencing: a promoted node never accepts a deposed
			// leader's stream; the stale leader sees 409 (naming this
			// node) and steps down to follower.
			n.writeFenced(w, cur, adv)
			return
		}
		// The pusher's leadership supersedes ours: we are the deposed
		// one. Step down and fall through to apply as a follower — the
		// divergence check below will request a resync.
		n.stepDown(req.Leader, req.Epoch)
	} else if leadershipNewer(cur, curLeader, req.Epoch, req.Leader) {
		// A deposed leader pushing to a follower that already answers
		// to a newer leadership: fence it toward the current leader.
		n.writeFenced(w, cur, curLeader)
		return
	}

	n.applyMu.Lock()
	defer n.applyMu.Unlock()
	force := forced(req.Logs)
	if !force && (n.Fenced() || n.logs.diverged(req.Logs)) {
		// An empty apply acknowledges the positions as they are.
		resp, _ := n.logs.apply(nil)
		resp.Resync = true
		n.noteLeaderContact(&req)
		crowd.WriteJSON(w, http.StatusOK, resp)
		return
	}
	resp, applied := n.logs.apply(req.Logs)
	if applied > 0 {
		n.metrics.appliedRecords.Add(int64(applied))
	}
	if force && len(resp.Errors) == 0 {
		// A clean force apply rebuilt every log from the leader's state:
		// the diverged tail is gone and the fence lifts.
		n.mu.Lock()
		n.needResync = false
		n.mu.Unlock()
		n.metrics.resyncs.Inc()
	}
	n.noteLeaderContact(&req)
	crowd.WriteJSON(w, http.StatusOK, resp)
}

// noteLeaderContact records a (gate-passing) leader push: its address
// and epoch.
func (n *Node) noteLeaderContact(req *applyRequest) {
	n.mu.Lock()
	n.leaderURL = req.Leader
	bumped := false
	if req.Epoch > n.epoch {
		n.epoch = req.Epoch
		bumped = true
	}
	epoch := n.epoch
	n.mu.Unlock()
	if bumped {
		n.logs.setTerm(epoch)
	}
}

// bufferedResponse holds a handler's response so the commit barrier can
// replace it with a 503 if replication does not confirm in time.
type bufferedResponse struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) {
	if b.status == 0 {
		b.status = code
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	if b.status == 0 {
		b.status = http.StatusOK
	}
	return b.buf.Write(p)
}

func (b *bufferedResponse) flush(w http.ResponseWriter) {
	h := w.Header()
	for k, vs := range b.header {
		h[k] = vs
	}
	if b.status == 0 {
		b.status = http.StatusOK
	}
	w.WriteHeader(b.status)
	w.Write(b.buf.Bytes())
}
