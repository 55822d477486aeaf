package cluster

// Unit tests for the self-healing control surface — readiness states,
// the detector's demote/attach endpoints — and the dueling-promotions
// property: two detectors promoting different followers to the same
// epoch must converge on one deterministic winner without losing any
// write acknowledged before the duel.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"gptunecrowd/internal/crowd"
)

// clusterPost sends an intra-cluster POST with the shared token and
// decodes the JSON reply into a generic map.
func clusterPost(t *testing.T, base, path string, body interface{}) (int, map[string]interface{}) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TokenHeader, testToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := make(map[string]interface{})
	json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func getReadyz(t *testing.T, base string) (int, map[string]interface{}) {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := make(map[string]interface{})
	json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

// heartbeatAs fakes one leader heartbeat push so a follower gains
// leader contact without a full replication setup.
func heartbeatAs(t *testing.T, followerURL, leaderURL string, epoch uint64) {
	t.Helper()
	status, body := clusterPost(t, followerURL, "/api/v1/cluster/apply", map[string]interface{}{
		"shard":  "s0",
		"leader": leaderURL,
		"epoch":  epoch,
		"logs":   map[string]interface{}{},
	})
	if status != http.StatusOK {
		t.Fatalf("heartbeat apply: HTTP %d %v", status, body)
	}
}

func TestReadyzStates(t *testing.T) {
	sp := testSpace(t)

	// A leader is ready and names no other leader.
	leader, leaderTS := newTestNode(t, "s0", true, []string{"p"}, sp)
	_ = leader
	if status, body := getReadyz(t, leaderTS.URL); status != http.StatusOK || body["state"] != "leader" {
		t.Fatalf("leader readyz: HTTP %d %v", status, body)
	}

	// A follower that never heard from a leader is not ready.
	follower, followerTS := newTestNode(t, "s0", false, []string{"p"}, sp)
	if status, body := getReadyz(t, followerTS.URL); status != http.StatusServiceUnavailable || body["state"] != "no_leader" {
		t.Fatalf("orphan follower readyz: HTTP %d %v", status, body)
	}

	// After a leader heartbeat it is in sync.
	heartbeatAs(t, followerTS.URL, leaderTS.URL, 1)
	if status, body := getReadyz(t, followerTS.URL); status != http.StatusOK || body["state"] != "in_sync" {
		t.Fatalf("in-sync follower readyz: HTTP %d %v", status, body)
	}

	// A deposed leader awaiting resync reports fenced and is not ready.
	if _, err := follower.PromoteEpoch(0); err != nil {
		t.Fatal(err)
	}
	if err := follower.Demote(leaderTS.URL, follower.Epoch()+1); err != nil {
		t.Fatal(err)
	}
	if status, body := getReadyz(t, followerTS.URL); status != http.StatusServiceUnavailable || body["state"] != "fenced" {
		t.Fatalf("fenced readyz: HTTP %d %v", status, body)
	}
}

func TestReadyzStale(t *testing.T) {
	n, err := NewNode(NodeConfig{
		Shard:           "s0",
		Leader:          false,
		Token:           testToken,
		CommitTimeout:   time.Second,
		StalenessWindow: 50 * time.Millisecond,
		Crowd:           crowd.Config{SuggestSeed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(n)
	n.SetAdvertise(ts.URL)
	t.Cleanup(func() {
		ts.Close()
		n.Close()
	})
	heartbeatAs(t, ts.URL, "http://leader.example", 1)
	deadline := time.Now().Add(2 * time.Second)
	for {
		status, body := getReadyz(t, ts.URL)
		if status == http.StatusServiceUnavailable && body["state"] == "stale" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never went stale: HTTP %d %v", status, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestDemoteEndpoint(t *testing.T) {
	sp := testSpace(t)
	leader, leaderTS := newTestNode(t, "s0", true, []string{"p"}, sp)
	if _, err := leader.PromoteEpoch(5); err != nil {
		t.Fatal(err)
	}

	// A demotion claiming an older leadership is refused.
	status, body := clusterPost(t, leaderTS.URL, "/api/v1/cluster/demote",
		map[string]interface{}{"leader": "http://new.example", "epoch": 3})
	if status != http.StatusConflict || body["code"] != "stale_epoch" {
		t.Fatalf("stale demote: HTTP %d %v", status, body)
	}
	if leader.Role() != RoleLeader {
		t.Fatal("stale demote changed the leader's role")
	}

	// A superseding demotion steps the leader down and fences it.
	status, body = clusterPost(t, leaderTS.URL, "/api/v1/cluster/demote",
		map[string]interface{}{"leader": "http://new.example", "epoch": 6})
	if status != http.StatusOK || body["role"] != string(RoleFollower) {
		t.Fatalf("demote: HTTP %d %v", status, body)
	}
	if !leader.Fenced() || leader.Epoch() != 6 || leader.LeaderURL() != "http://new.example" {
		t.Fatalf("demoted leader: fenced=%v epoch=%d leader=%q",
			leader.Fenced(), leader.Epoch(), leader.LeaderURL())
	}

	// Demoting a follower again just adopts the newer leadership.
	status, _ = clusterPost(t, leaderTS.URL, "/api/v1/cluster/demote",
		map[string]interface{}{"leader": "http://newer.example", "epoch": 7})
	if status != http.StatusOK || leader.Epoch() != 7 {
		t.Fatalf("follower demote: HTTP %d epoch=%d", status, leader.Epoch())
	}
}

func TestAttachEndpoint(t *testing.T) {
	sp := testSpace(t)
	leader, leaderTS := newTestNode(t, "s0", true, []string{"p"}, sp)
	_, followerTS := newTestNode(t, "s0", false, []string{"p"}, sp)

	status, body := clusterPost(t, leaderTS.URL, "/api/v1/cluster/attach",
		map[string]interface{}{"follower": followerTS.URL})
	if status != http.StatusOK || body["existing"] != false {
		t.Fatalf("attach: HTTP %d %v", status, body)
	}
	if got := leader.Followers(); len(got) != 1 || got[0] != followerTS.URL {
		t.Fatalf("followers after attach: %v", got)
	}

	// Re-attaching the same URL is a no-op, not a second replicator.
	status, body = clusterPost(t, leaderTS.URL, "/api/v1/cluster/attach",
		map[string]interface{}{"follower": followerTS.URL})
	if status != http.StatusOK || body["existing"] != true {
		t.Fatalf("re-attach: HTTP %d %v", status, body)
	}
	if got := leader.Followers(); len(got) != 1 {
		t.Fatalf("re-attach grew the follower set: %v", got)
	}

	// Attach on a non-leader is fenced toward the real leader.
	heartbeatAs(t, followerTS.URL, leaderTS.URL, 1)
	status, body = clusterPost(t, followerTS.URL, "/api/v1/cluster/attach",
		map[string]interface{}{"follower": leaderTS.URL})
	if status != http.StatusConflict || body["code"] != "fenced" {
		t.Fatalf("attach on follower: HTTP %d %v", status, body)
	}
}

// TestDuelingPromotionsConverge: the shard's leader dies and two
// detectors race, promoting BOTH followers at the same epoch. The
// higher advertise URL must win deterministically, the loser must be
// fenced on first contact and rejoin via truncation resync, and every
// write acknowledged before the duel must survive on both followers,
// byte-identical.
func TestDuelingPromotionsConverge(t *testing.T) {
	sp := testSpace(t)
	leader, leaderTS := newTestNode(t, "s0", true, []string{"p"}, sp)
	a, aTS := newTestNode(t, "s0", false, []string{"p"}, sp)
	b, bTS := newTestNode(t, "s0", false, []string{"p"}, sp)
	leader.AttachFollower(aTS.URL, nil)
	leader.AttachFollower(bTS.URL, nil)

	boot := newStressClient(leaderTS.URL, "")
	key, err := boot.Register("alice", "")
	if err != nil {
		t.Fatal(err)
	}
	c := newStressClient(leaderTS.URL, key)
	const n = 8
	for i := 0; i < n; i++ {
		if _, err := c.Upload([]crowd.FuncEval{stressEval("p", fmt.Sprintf("pre-duel-%d", i), i)}); err != nil {
			t.Fatalf("pre-duel upload %d: %v", i, err)
		}
	}

	// The leader dies mid-flight.
	leaderTS.Close()

	// Two detectors promote different followers to the same epoch,
	// concurrently. Both promotions are locally valid CAS wins.
	var wg sync.WaitGroup
	for _, url := range []string{aTS.URL, bTS.URL} {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			status, body := clusterPost(t, url, "/api/v1/cluster/promote",
				map[string]interface{}{"epoch": 2})
			if status != http.StatusOK {
				t.Errorf("promote %s: HTTP %d %v", url, status, body)
			}
		}(url)
	}
	wg.Wait()
	if a.Role() != RoleLeader || b.Role() != RoleLeader {
		t.Fatalf("expected a split brain before contact: roles %s/%s", a.Role(), b.Role())
	}

	// Wire the duelists to each other, as the detector's heal pass
	// would. First contact resolves the duel: higher URL wins.
	clusterPost(t, aTS.URL, "/api/v1/cluster/attach", map[string]interface{}{"follower": bTS.URL})
	clusterPost(t, bTS.URL, "/api/v1/cluster/attach", map[string]interface{}{"follower": aTS.URL})

	winner, loser := a, b
	if bTS.URL > aTS.URL {
		winner, loser = b, a
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if winner.Role() == RoleLeader && loser.Role() == RoleFollower &&
			!loser.Fenced() && winner.Epoch() == 2 && loser.Epoch() == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("duel did not converge: winner(%s epoch %d) loser(%s epoch %d fenced %v)",
				winner.Role(), winner.Epoch(), loser.Role(), loser.Epoch(), loser.Fenced())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := loser.LeaderURL(); got != winner.Advertise() {
		t.Fatalf("loser points writers at %q, want %q", got, winner.Advertise())
	}

	// Every pre-duel acknowledged write survived on both duelists, and
	// their replicated state is byte-identical.
	for _, name := range logNamesOf(winner) {
		ws := machineSnapshot(t, winner, name)
		ls := machineSnapshot(t, loser, name)
		if !bytes.Equal(ws, ls) {
			t.Fatalf("%s state diverges between duelists after convergence", name)
		}
	}
	evalsSnap := machineSnapshot(t, winner, "func_evals")
	for i := 0; i < n; i++ {
		uid := fmt.Sprintf("pre-duel-%d", i)
		if !bytes.Contains(evalsSnap, []byte(uid)) {
			t.Fatalf("pre-duel acked sample %s lost in the duel", uid)
		}
	}

	// Writes keep flowing through the winner.
	cw := newStressClient(winner.Advertise(), key)
	if _, err := cw.Upload([]crowd.FuncEval{stressEval("p", "post-duel", 99)}); err != nil {
		t.Fatalf("post-duel upload: %v", err)
	}
}
