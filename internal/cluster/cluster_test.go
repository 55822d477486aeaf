package cluster

// Focused cluster tests: the client-side 307 redirect contract, the
// 421/ErrWrongShard surface, and coordinator batch splitting. The
// full-system behavior lives in cluster_e2e_test.go.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gptunecrowd/internal/crowd"
)

// TestFollowerRedirectsWritesToLeader points a plain crowd.Client at a
// follower and checks the 307 + X-Shard-Leader hop lands the write on
// the leader transparently.
func TestFollowerRedirectsWritesToLeader(t *testing.T) {
	sp := testSpace(t)
	leader, leaderTS := newTestNode(t, "s0", true, []string{"p"}, sp)
	follower, followerTS := newTestNode(t, "s0", false, []string{"p"}, sp)
	rep := leader.AttachFollower(followerTS.URL, nil)
	defer rep.Stop()

	// Teach the follower who leads: the first replicated write carries
	// the leader's advertise URL.
	boot := newStressClient(leaderTS.URL, "")
	key, err := boot.Register("alice", "")
	if err != nil {
		t.Fatal(err)
	}

	// Writes against the follower bounce to the leader and succeed.
	viaFollower := newStressClient(followerTS.URL, key)
	ids, err := viaFollower.Upload([]crowd.FuncEval{stressEval("p", "via-follower", 1)})
	if err != nil {
		t.Fatalf("upload via follower: %v", err)
	}
	if len(ids) != 1 {
		t.Fatalf("got %d ids, want 1", len(ids))
	}
	if n := leader.Server().Store().Collection("func_evals").Len(); n != 1 {
		t.Fatalf("leader stores %d evals, want 1", n)
	}
	// The acknowledged write also reached the follower (commit barrier).
	if n := follower.Server().Store().Collection("func_evals").Len(); n != 1 {
		t.Fatalf("follower stores %d evals, want 1", n)
	}
}

// TestFollowerWithoutLeaderAnswersWrongShard: a follower that has never
// heard from a leader cannot redirect; the client surfaces the typed
// sentinel.
func TestFollowerWithoutLeaderAnswersWrongShard(t *testing.T) {
	_, followerTS := newTestNode(t, "s0", false, []string{"p"}, testSpace(t))
	c := newStressClient(followerTS.URL, "whatever-key")
	_, err := c.Upload([]crowd.FuncEval{stressEval("p", "u", 1)})
	if !errors.Is(err, crowd.ErrWrongShard) {
		t.Fatalf("err = %v, want ErrWrongShard", err)
	}
}

// TestRedirectBudgetExhausted: a redirect loop (stale topology pointing
// nodes at each other) ends in ErrWrongShard instead of spinning.
func TestRedirectBudgetExhausted(t *testing.T) {
	var ts *httptest.Server
	hops := 0
	ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hops++
		w.Header().Set(crowd.ShardLeaderHeader, ts.URL)
		w.WriteHeader(http.StatusTemporaryRedirect)
	}))
	defer ts.Close()
	c := newStressClient(ts.URL, "k")
	_, err := c.Upload([]crowd.FuncEval{stressEval("p", "u", 1)})
	if !errors.Is(err, crowd.ErrWrongShard) {
		t.Fatalf("err = %v, want ErrWrongShard", err)
	}
	if hops < crowd.DefaultMaxRedirects {
		t.Fatalf("only %d hops before giving up, want at least %d", hops, crowd.DefaultMaxRedirects)
	}
}

// TestCoordinatorSplitsUploadAcrossShards uploads one batch spanning
// many problems through the coordinator and checks each sample landed
// on exactly the shard the ring owns it to.
func TestCoordinatorSplitsUploadAcrossShards(t *testing.T) {
	problems := []string{"p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"}
	coordTS, shards := newTestCluster(t, 3, problems)
	c := newStressClient(coordTS.URL, "")
	if _, err := c.Register("alice", ""); err != nil {
		t.Fatal(err)
	}

	var batch []crowd.FuncEval
	for i, p := range problems {
		batch = append(batch, stressEval(p, fmt.Sprintf("split-%s", p), i))
	}
	ids, err := c.Upload(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(batch) {
		t.Fatalf("got %d ids, want %d", len(ids), len(batch))
	}

	// Every problem is queryable through the coordinator, and the union
	// of shard-local stores holds exactly the batch.
	total := 0
	for _, s := range shards {
		total += s.leader.Server().Store().Collection("func_evals").Len()
	}
	if total != len(batch) {
		t.Fatalf("shards hold %d evals in total, want %d", total, len(batch))
	}
	spread := 0
	for _, s := range shards {
		if s.leader.Server().Store().Collection("func_evals").Len() > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("all problems hashed onto %d shard(s); ring is not spreading", spread)
	}
	for _, p := range problems {
		evals, err := c.Query(crowd.QueryRequest{TuningProblemName: p})
		if err != nil {
			t.Fatalf("query %s: %v", p, err)
		}
		if len(evals) != 1 {
			t.Fatalf("query %s returned %d evals, want 1", p, len(evals))
		}
	}

	// The problems fan-out unions all shards.
	got, err := c.Problems()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(problems) {
		t.Fatalf("problems fan-out returned %v, want all of %v", got, problems)
	}

	// A split batch travels under derived per-shard ids ("<id>-<shard>"),
	// so the same client batch replayed through the coordinator stores
	// nothing twice, and quarantine reports keep the client's indices.
	// Counters: a split or an every-shard request is one fan-out, a
	// single-owner request one routed.
	coord := coordTS.Config.Handler.(*Coordinator)
	bad := stressEval("p0", "split-bad", 0)
	bad.TuningParams["x"] = 7.0
	retry, err := json.Marshal(crowd.UploadRequest{FuncEvals: append(batch[1:], bad), BatchID: "client-batch"})
	if err != nil {
		t.Fatal(err)
	}
	fanouts, routed := coord.metrics.fanouts.Value(), coord.metrics.routed.Value()
	for attempt := 0; attempt < 2; attempt++ {
		rec := wireCall(coord, http.MethodPost, crowd.PathFuncEvalUpload, c.APIKey, bytes.NewReader(retry))
		var resp crowd.UploadResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("attempt %d: %d %s (%v)", attempt, rec.Code, rec.Body, err)
		}
		if len(resp.IDs) != len(batch)-1 || len(resp.Quarantined) != 1 || resp.Quarantined[0].Index != len(batch)-1 {
			t.Fatalf("attempt %d: %d ids, quarantined %+v", attempt, len(resp.IDs), resp.Quarantined)
		}
	}
	after := 0
	for _, s := range shards {
		after += s.leader.Server().Store().Collection("func_evals").Len()
	}
	if after != total+len(batch)-1 {
		t.Fatalf("replayed split batch stored %d new evals, want %d", after-total, len(batch)-1)
	}
	if _, err := c.Query(crowd.QueryRequest{TuningProblemName: "p0"}); err != nil {
		t.Fatal(err)
	}
	if f, r := coord.metrics.fanouts.Value()-fanouts, coord.metrics.routed.Value()-routed; f != 2 || r != 1 {
		t.Fatalf("two split uploads and a query counted %d fan-outs and %d routed, want 2 and 1", f, r)
	}
}

// TestStaleLeaderStepsDownWhenFenced: promoting a follower while the
// old leader is still reachable must not leave two nodes acknowledging
// writes. The old leader's next replication push is fenced (409); it
// steps down to follower, refuses to self-commit the in-flight write
// (503, not a false ack), and bounces the retry to the promoted node.
func TestStaleLeaderStepsDownWhenFenced(t *testing.T) {
	sp := testSpace(t)
	mk := func(leader bool) (*Node, *httptest.Server) {
		n, err := NewNode(NodeConfig{
			Shard:           "s0",
			Leader:          leader,
			Token:           testToken,
			CommitTimeout:   300 * time.Millisecond,
			StalenessWindow: time.Minute,
			Crowd:           crowd.Config{SuggestSeed: 11},
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Server().RegisterProblemPolicy("p", crowd.ProblemPolicy{Space: sp})
		ts := httptest.NewServer(n)
		n.SetAdvertise(ts.URL)
		t.Cleanup(ts.Close)
		t.Cleanup(func() { n.Close() })
		return n, ts
	}
	oldLeader, oldTS := mk(true)
	follower, folTS := mk(false)
	rep := oldLeader.AttachFollower(folTS.URL, nil)

	// Replicate one committed write so both nodes hold the credential.
	boot := newStressClient(oldTS.URL, "")
	key, err := boot.Register("alice", "")
	if err != nil {
		t.Fatal(err)
	}

	// Operator failover while the old leader is alive and reachable.
	if _, err := follower.PromoteEpoch(0); err != nil {
		t.Fatal(err)
	}

	// A write against the stale leader must end up acknowledged by the
	// promoted node: the first attempt is fenced at the barrier (503)
	// or bounced outright, and the retry follows the 307.
	c := newStressClient(oldTS.URL, key)
	ids, err := c.Upload([]crowd.FuncEval{stressEval("p", "post-fence", 1)})
	if err != nil {
		t.Fatalf("upload via stale leader: %v", err)
	}
	if len(ids) != 1 {
		t.Fatalf("got %d ids, want 1", len(ids))
	}
	if got := oldLeader.Role(); got != RoleFollower {
		t.Fatalf("fenced leader role = %s, want follower", got)
	}
	if got := oldLeader.LeaderURL(); got != folTS.URL {
		t.Fatalf("fenced leader points writers at %q, want %q", got, folTS.URL)
	}
	if rep.Alive() {
		t.Fatal("fenced replicator still counted in the commit quorum")
	}
	if n := follower.Server().Store().Collection("func_evals").Len(); n != 1 {
		t.Fatalf("promoted leader stores %d evals, want 1", n)
	}
}

// TestTopologySnapshotIsolatedFromFailover: ShardInfo handed out by
// shardInfo/snapshotTopology must not share Replicas backing arrays
// with the live topology — adoptLeader rewrites those lists in place
// while readers iterate their snapshots without a lock.
func TestTopologySnapshotIsolatedFromFailover(t *testing.T) {
	c, err := NewCoordinator(CoordinatorConfig{Topology: Topology{
		Version: 1,
		Shards:  []ShardInfo{{ID: "s0", Leader: "http://a", Replicas: []string{"http://b", "http://c"}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := c.shardInfo("s0")
	if !ok {
		t.Fatal("shard s0 missing")
	}
	c.adoptLeader("s0", "http://b", 2)
	if got := strings.Join(snap.Replicas, ","); got != "http://b,http://c" {
		t.Fatalf("shardInfo snapshot mutated by failover: replicas = %s", got)
	}
	topo := c.snapshotTopology()
	c.adoptLeader("s0", "http://c", 3)
	if got := strings.Join(topo.Shards[0].Replicas, ","); got != "http://c,http://a" {
		t.Fatalf("topology snapshot mutated by failover: replicas = %s", got)
	}
	if topo.Shards[0].Leader != "http://b" {
		t.Fatalf("topology snapshot leader = %s, want http://b", topo.Shards[0].Leader)
	}
}

// TestClientFollowsLocationOnlyRedirect: a 307 that lacks
// X-Shard-Leader falls back to the Location header, which nodes set to
// leader+path — the client must keep only the origin, or the retried
// attempt doubles the path and 404s.
func TestClientFollowsLocationOnlyRedirect(t *testing.T) {
	var gotPath string
	leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotPath = r.URL.Path
		crowd.WriteJSON(w, http.StatusOK, crowd.RegisterResponse{APIKey: "k"})
	}))
	defer leader.Close()
	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Location", leader.URL+r.URL.Path)
		w.WriteHeader(http.StatusTemporaryRedirect)
	}))
	defer follower.Close()
	c := newStressClient(follower.URL, "")
	key, err := c.Register("alice", "")
	if err != nil {
		t.Fatalf("register via Location-only redirect: %v", err)
	}
	if key != "k" {
		t.Fatalf("key = %q, want k", key)
	}
	if gotPath != "/api/v1/register" {
		t.Fatalf("leader saw path %q, want /api/v1/register", gotPath)
	}
}

// TestCommitBarrierTimesOutWithDeadFollower: when a shard's only
// follower is unreachable, writes block on the barrier until the
// follower is declared dead, then commit with the leader alone —
// bounded unavailability, no wedge.
func TestCommitBarrierTimesOutWithDeadFollower(t *testing.T) {
	sp := testSpace(t)
	leader, leaderTS := newTestNode(t, "s0", true, []string{"p"}, sp)
	// A follower that immediately goes away.
	deadTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	rep := leader.AttachFollower(deadTS.URL, nil)
	defer rep.Stop()
	deadTS.Close()

	c := newStressClient(leaderTS.URL, "")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.RegisterContext(ctx, "alice", ""); err != nil {
		t.Fatalf("register with dead follower: %v", err)
	}
	if rep.Alive() {
		t.Fatal("dead follower still counted in the commit quorum")
	}
}
