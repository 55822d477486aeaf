package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"

	"gptunecrowd/internal/cluster"
	"gptunecrowd/internal/crowd"
	"gptunecrowd/internal/space"
	"gptunecrowd/internal/suggest"
)

// workDir is where durable fixtures put their data directories. The
// benchmark may only write inside its checkout, so the default sits
// under the build directory the repository's .gitignore names.
var workDir = filepath.Join(".bench_build", "tmp")

var dirSeq atomic.Int64

// tempDir makes a fresh directory under workDir; the returned function
// removes it.
func tempDir(label string) (string, func(), error) {
	dir := filepath.Join(workDir, fmt.Sprintf("%s-%d-%d", label, os.Getpid(), dirSeq.Add(1)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// deployment is one in-process target behind httptest listeners: a
// single crowd.Server, a durable cluster.Node, or a coordinator in
// front of replicated shards. All load reaches it through client, over
// real loopback HTTP.
type deployment struct {
	url    string
	client *crowd.Client
	// servers are every crowd.Server behind url (leaders and followers),
	// for policy registration and for summing public stats.
	servers []*crowd.Server
	// leaders are the nodes that accept writes (empty for a plain server).
	leaders []*cluster.Node
	coord   *cluster.Coordinator
	closers []func()
}

func (d *deployment) close() {
	if d.client != nil {
		d.client.HTTP.CloseIdleConnections()
	}
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
}

// open finishes a deployment whose servers are up: it declares the
// problems' space on every server, points the client at url and
// registers the benchmark's one user. On failure everything started is
// torn down.
func (d *deployment) open(url string, sp *space.Space, problems []string) (*deployment, error) {
	for _, srv := range d.servers {
		for _, p := range problems {
			srv.RegisterProblemPolicy(p, crowd.ProblemPolicy{Space: sp})
		}
	}
	d.url = url
	d.client = crowd.NewClient(url, "")
	// Enough idle connections that the closed-loop clients and the
	// upload timer each reuse their own.
	d.client.HTTP = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	if _, err := d.client.Register("bench", ""); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *deployment) serve(h http.Handler) string {
	ts := httptest.NewServer(h)
	d.closers = append(d.closers, ts.Close)
	return ts.URL
}

// newSingle is one crowd.Server with an in-memory store.
func newSingle(cfg crowd.Config, sp *space.Space, problems []string) (*deployment, error) {
	srv := crowd.NewServerWith(cfg)
	d := &deployment{servers: []*crowd.Server{srv}}
	return d.open(d.serve(srv), sp, problems)
}

// addNode starts one durable cluster node with its own data directory.
func (d *deployment) addNode(shard string, leader bool, cfg crowd.Config) (*cluster.Node, string, error) {
	dir, rm, err := tempDir(shard)
	if err != nil {
		return nil, "", err
	}
	d.closers = append(d.closers, rm)
	n, err := cluster.NewNode(cluster.NodeConfig{Shard: shard, Leader: leader, DataDir: dir, Crowd: cfg})
	if err != nil {
		return nil, "", err
	}
	d.closers = append(d.closers, func() { n.Close() })
	url := d.serve(n)
	n.SetAdvertise(url)
	d.servers = append(d.servers, n.Server())
	if leader {
		d.leaders = append(d.leaders, n)
	}
	return n, url, nil
}

// newNode is a single durable leader without followers: the repository
// as a database, every write journaled through replog.
func newNode(cfg crowd.Config, sp *space.Space, problems []string) (*deployment, error) {
	d := &deployment{}
	_, url, err := d.addNode("s0", true, cfg)
	if err != nil {
		d.close()
		return nil, err
	}
	return d.open(url, sp, problems)
}

// newCluster is the deployed topology: a coordinator in front of
// shards × (leader + attached followers), all durable.
func newCluster(cfg crowd.Config, sp *space.Space, problems []string, shards, followers int) (*deployment, error) {
	d := &deployment{}
	topo := cluster.Topology{Version: 1}
	for i := 0; i < shards; i++ {
		id := fmt.Sprintf("s%d", i)
		leader, leaderURL, err := d.addNode(id, true, cfg)
		if err != nil {
			d.close()
			return nil, err
		}
		info := cluster.ShardInfo{ID: id, Leader: leaderURL}
		for f := 0; f < followers; f++ {
			_, followerURL, err := d.addNode(id, false, cfg)
			if err != nil {
				d.close()
				return nil, err
			}
			leader.AttachFollower(followerURL, nil)
			info.Replicas = append(info.Replicas, followerURL)
		}
		topo.Shards = append(topo.Shards, info)
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{Topology: topo})
	if err != nil {
		d.close()
		return nil, err
	}
	d.coord = coord
	return d.open(d.serve(coord), sp, problems)
}

// suggestStats sums the suggestion-service counters over every server
// (a single server is the one-element case).
func (d *deployment) suggestStats() suggest.Stats {
	var t suggest.Stats
	for _, srv := range d.servers {
		s := srv.SuggestService().Stats()
		t.Requests += s.Requests
		t.CacheHits += s.CacheHits
		t.CacheMisses += s.CacheMisses
		t.FullFits += s.FullFits
		t.IncrementalObserves += s.IncrementalObserves
		t.Evictions += s.Evictions
		t.StaleWaits += s.StaleWaits
		t.LiarsRetired += s.LiarsRetired
		t.LiarsExpired += s.LiarsExpired
	}
	return t
}

// shed sums requests rejected by the concurrency limiter (429).
func (d *deployment) shed() int64 {
	var n int64
	for _, srv := range d.servers {
		n += srv.Metrics().Rejected
	}
	return n
}

// uploads sums stored upload batches over the servers that accept them.
func (d *deployment) uploads() int64 {
	var n int64
	for _, srv := range d.servers {
		n += srv.Metrics().Uploads
	}
	return n
}

// logAppends sums func_evals log appends over the leaders.
func (d *deployment) logAppends() uint64 {
	var n uint64
	for _, l := range d.leaders {
		n += l.Log("func_evals").Stats().Appends
	}
	return n
}

// routeRetries reads the coordinator's retry counter: shard requests
// re-sent after a redirect, a stale replica or a refreshed leader.
func (d *deployment) routeRetries() int64 {
	if d.coord == nil {
		return 0
	}
	return d.coord.Registry().Counter("cluster_route_retries_total",
		"Shard requests retried on another replica or refreshed leader.").Value()
}
