package cluster

// The read contract through the coordinator: every public read is
// served by the shard leader, so a read sees every write acknowledged
// before it was sent, and batch suggests share the leader's liar ledger.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gptunecrowd/internal/crowd"
	"gptunecrowd/internal/replog"
)

// breakableTransport fails every round trip while broken is set.
type breakableTransport struct{ broken atomic.Bool }

func (b *breakableTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if b.broken.Load() {
		return nil, errors.New("link broken")
	}
	return http.DefaultTransport.RoundTrip(r)
}

// newHeartbeatNode is newTestNode with a 20 ms heartbeat, so a leader
// drops an unreachable follower from its commit quorum within a few
// tens of milliseconds.
func newHeartbeatNode(t *testing.T, leader bool) (*Node, *httptest.Server) {
	t.Helper()
	n, err := NewNode(NodeConfig{
		Shard:             "s0",
		Leader:            leader,
		Token:             testToken,
		HeartbeatInterval: 20 * time.Millisecond,
		Crowd:             crowd.Config{SuggestSeed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Server().RegisterProblemPolicy("p", crowd.ProblemPolicy{Space: testSpace(t)})
	ts := httptest.NewServer(n)
	n.SetAdvertise(ts.URL)
	t.Cleanup(func() { ts.Close(); n.Close() })
	return n, ts
}

// newOneShardCoordinator serves a coordinator over shard s0.
func newOneShardCoordinator(t *testing.T, leaderURL string, replicas ...string) *httptest.Server {
	t.Helper()
	coord, err := NewCoordinator(CoordinatorConfig{
		Topology: Topology{Version: 1, Shards: []ShardInfo{{ID: "s0", Leader: leaderURL, Replicas: replicas}}},
		Token:    testToken,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord)
	t.Cleanup(ts.Close)
	return ts
}

// TestAckedWriteVisibleThroughCoordinator: once the leader drops a
// cut-off follower from its commit quorum and acknowledges a write
// alone, a query through the coordinator still returns that write.
func TestAckedWriteVisibleThroughCoordinator(t *testing.T) {
	leader, leaderTS := newHeartbeatNode(t, true)
	_, followerTS := newHeartbeatNode(t, false)
	link := &breakableTransport{}
	rep := leader.AttachFollower(followerTS.URL, &http.Client{Transport: link})
	defer rep.Stop()
	coordTS := newOneShardCoordinator(t, leaderTS.URL, followerTS.URL)

	key, err := newStressClient(coordTS.URL, "").Register("alice", "")
	if err != nil {
		t.Fatal(err)
	}
	c := newStressClient(coordTS.URL, key)
	if _, err := c.Upload([]crowd.FuncEval{stressEval("p", "a", 1)}); err != nil {
		t.Fatalf("upload a: %v", err)
	}
	link.broken.Store(true)
	if _, err := c.Upload([]crowd.FuncEval{stressEval("p", "b", 2)}); err != nil {
		t.Fatalf("upload b: %v", err)
	}
	if rep.Alive() {
		t.Fatal("b was acknowledged while the cut-off follower still counted in the commit quorum")
	}

	evals, err := c.QueryContext(context.Background(), crowd.QueryRequest{TuningProblemName: "p"})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[interface{}]bool{}
	for _, e := range evals {
		seen[e.TaskParams["uid"]] = true
	}
	if !seen["a"] || !seen["b"] {
		t.Fatalf("query through the coordinator saw %v, want both acknowledged samples a and b", seen)
	}
}

// TestCoordinatorBatchSuggestsAreLiarAware: two batch suggests through
// the coordinator share no point, because both reach the one liar
// ledger on the shard leader, not two replicas with ledgers of their own.
func TestCoordinatorBatchSuggestsAreLiarAware(t *testing.T) {
	sp := testSpace(t)
	leader, leaderTS := newTestNode(t, "s0", true, []string{"p"}, sp)
	var followers []*Node
	var urls []string
	for range 2 {
		f, ts := newTestNode(t, "s0", false, []string{"p"}, sp)
		defer leader.AttachFollower(ts.URL, nil).Stop()
		followers = append(followers, f)
		urls = append(urls, ts.URL)
	}
	coordTS := newOneShardCoordinator(t, leaderTS.URL, urls...)

	key, err := newStressClient(coordTS.URL, "").Register("alice", "")
	if err != nil {
		t.Fatal(err)
	}
	c := newStressClient(coordTS.URL, key)
	evals := make([]crowd.FuncEval, 12)
	for i := range evals {
		evals[i] = stressEval("p", "hot", i)
	}
	if _, err := c.Upload(evals); err != nil {
		t.Fatal(err)
	}
	head := func(n *Node) uint64 {
		var last uint64
		n.EachLog(func(name string, j *replog.Journal) {
			if name == "func_evals" {
				last = j.Log().LastIndex()
			}
		})
		return last
	}
	for deadline := time.Now().Add(5 * time.Second); head(followers[0]) != head(leader) || head(followers[1]) != head(leader); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("followers never caught up with the leader's func_evals head")
		}
	}

	req := crowd.SuggestRequest{TuningProblemName: "p", TaskParams: map[string]interface{}{"uid": "hot"}, Batch: 4}
	seen := map[string]int{}
	for call := range 2 {
		resp, err := c.SuggestRemote(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Proposals) != req.Batch {
			t.Fatalf("suggest %d returned %d proposals, want %d", call, len(resp.Proposals), req.Batch)
		}
		for _, p := range resp.Proposals {
			point := fmt.Sprint(p.ParamU)
			if prev, dup := seen[point]; dup {
				t.Fatalf("suggest %d proposed %s, already proposed by suggest %d", call, point, prev)
			}
			seen[point] = call
		}
	}
}
