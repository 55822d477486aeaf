package cluster

// Multi-node stress harness: 3 shards × 2 replicas plus a coordinator,
// all in-process, driven by concurrent uploaders, suggest clients and
// task workers while one shard's leader is killed mid-stream and its
// follower promoted. The invariants checked are the PR's acceptance
// bar: zero lost acknowledged samples/tasks, follower state
// byte-identical to its leader, and every shard's live state
// byte-identical to an oracle rebuilt by replaying its logs from
// scratch. Run under -race (the CI stress suite does).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gptunecrowd/internal/crowd"
	"gptunecrowd/internal/historydb"
	"gptunecrowd/internal/replog"
	"gptunecrowd/internal/space"
	"gptunecrowd/internal/taskpool"
)

const testToken = "cluster-test-token"

func testSpace(t *testing.T) *space.Space {
	t.Helper()
	sp, err := space.New(
		space.Param{Name: "x", Kind: space.Real, Lo: 0, Hi: 1},
		space.Param{Name: "y", Kind: space.Real, Lo: 0, Hi: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// testShard is one shard's in-process deployment: a leader node and a
// follower replica, each behind a real HTTP listener.
type testShard struct {
	id         string
	leader     *Node
	leaderTS   *httptest.Server
	follower   *Node
	followerTS *httptest.Server
}

func newTestNode(t *testing.T, shard string, leader bool, problems []string, sp *space.Space) (*Node, *httptest.Server) {
	t.Helper()
	n, err := NewNode(NodeConfig{
		Shard:           shard,
		Leader:          leader,
		Token:           testToken,
		CommitTimeout:   5 * time.Second,
		StalenessWindow: time.Minute,
		Crowd:           crowd.Config{SuggestSeed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		n.Server().RegisterProblemPolicy(p, crowd.ProblemPolicy{Space: sp})
	}
	ts := httptest.NewServer(n)
	n.SetAdvertise(ts.URL)
	t.Cleanup(func() { n.Close() })
	return n, ts
}

func newTestCluster(t *testing.T, nShards int, problems []string) (*httptest.Server, []*testShard) {
	t.Helper()
	sp := testSpace(t)
	shards := make([]*testShard, nShards)
	topo := Topology{Version: 1}
	for i := range shards {
		id := fmt.Sprintf("s%d", i)
		leader, leaderTS := newTestNode(t, id, true, problems, sp)
		follower, followerTS := newTestNode(t, id, false, problems, sp)
		leader.AttachFollower(followerTS.URL, nil)
		shards[i] = &testShard{id: id, leader: leader, leaderTS: leaderTS, follower: follower, followerTS: followerTS}
		topo.Shards = append(topo.Shards, ShardInfo{ID: id, Leader: leaderTS.URL, Replicas: []string{followerTS.URL}})
	}
	coord, err := NewCoordinator(CoordinatorConfig{Topology: topo, Token: testToken})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(coord)
	t.Cleanup(coordTS.Close)
	return coordTS, shards
}

func stressEval(problem, uid string, i int) crowd.FuncEval {
	x := 0.05 + 0.9*float64(i%17)/16
	y := 0.05 + 0.9*float64((i*7)%13)/12
	return crowd.FuncEval{
		TuningProblemName: problem,
		TaskParams:        map[string]interface{}{"uid": uid},
		TuningParams:      map[string]interface{}{"x": x, "y": y},
		Output:            1 + (x-0.3)*(x-0.3) + (y-0.6)*(y-0.6) + 0.01*float64(i%5),
	}
}

func newStressClient(url, key string) *crowd.Client {
	c := crowd.NewClient(url, key)
	c.MaxRetries = 6
	c.BackoffBase = 20 * time.Millisecond
	c.BackoffMax = 250 * time.Millisecond
	return c
}

// logNamesOf lists a node's replicated logs in apply order.
func logNamesOf(n *Node) []string {
	var names []string
	n.EachLog(func(name string, _ *replog.Journal) { names = append(names, name) })
	return names
}

// machineSnapshot serializes one of a node's replicated state machines.
func machineSnapshot(t *testing.T, n *Node, name string) []byte {
	t.Helper()
	var buf bytes.Buffer
	n.EachLog(func(row string, j *replog.Journal) {
		if row == name {
			if err := j.Machine().WriteJSONL(&buf); err != nil {
				t.Fatalf("snapshot %s: %v", name, err)
			}
		}
	})
	return buf.Bytes()
}

// oracleSnapshot rebuilds a fresh state machine purely from the node's
// log (base snapshot + entry-by-entry apply) and serializes it.
func oracleSnapshot(t *testing.T, n *Node, name string) []byte {
	t.Helper()
	var fresh replog.Machine = historydb.NewCollection(name)
	if name == "tasks" {
		fresh = taskpool.New(taskpool.Config{})
	}
	lg := n.Log(name)
	var snap bytes.Buffer
	idx, ok, err := lg.Snapshot(&snap)
	if err != nil {
		t.Fatalf("oracle snapshot %s: %v", name, err)
	}
	if ok {
		if err := fresh.ReadJSONL(&snap); err != nil {
			t.Fatalf("oracle restore %s: %v", name, err)
		}
	}
	recs, err := lg.Entries(idx, 0)
	if err != nil {
		t.Fatalf("oracle entries %s: %v", name, err)
	}
	for _, rec := range recs {
		if err := fresh.ApplyLogRecord(rec); err != nil {
			t.Fatalf("oracle replay %s: %v", name, err)
		}
	}
	var buf bytes.Buffer
	if err := fresh.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestClusterStressFailover is the end-to-end cluster suite member of
// the -race stress family.
func TestClusterStressFailover(t *testing.T) {
	problems := []string{"p0", "p1", "p2", "p3", "p4", "p5"}
	coordTS, shards := newTestCluster(t, 3, problems)

	admin := newStressClient(coordTS.URL, "")
	key, err := admin.Register("alice", "alice@hpc.example")
	if err != nil {
		t.Fatalf("register through coordinator: %v", err)
	}
	admin.APIKey = key

	// Seed every problem so suggest has history from the first request.
	for pi, p := range problems {
		seed := make([]crowd.FuncEval, 8)
		for i := range seed {
			seed[i] = stressEval(p, fmt.Sprintf("seed-%s-%d", p, i), pi*8+i)
		}
		if _, err := admin.Upload(seed); err != nil {
			t.Fatalf("seed upload %s: %v", p, err)
		}
	}

	var (
		wg       sync.WaitGroup
		stop     = make(chan struct{})
		ackedMu  sync.Mutex
		acked    = make(map[string][]string) // problem -> acked uids
		suggests atomic.Int64
	)

	// Uploaders: one per problem, batches of 3, recording which uids
	// were acknowledged. Failures (including during the leader kill)
	// are fine — unacknowledged batches carry no durability promise.
	for pi, p := range problems {
		wg.Add(1)
		go func(pi int, p string) {
			defer wg.Done()
			c := newStressClient(coordTS.URL, key)
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				batch := make([]crowd.FuncEval, 3)
				uids := make([]string, 3)
				for j := range batch {
					uids[j] = fmt.Sprintf("u-%s-%d-%d", p, k, j)
					batch[j] = stressEval(p, uids[j], pi+k+j)
				}
				if _, err := c.Upload(batch); err == nil {
					ackedMu.Lock()
					acked[p] = append(acked[p], uids...)
					ackedMu.Unlock()
				}
				time.Sleep(5 * time.Millisecond)
			}
		}(pi, p)
	}

	// Suggest clients: hammer the read path (served by follower
	// replicas through the coordinator) across all problems.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := newStressClient(coordTS.URL, key)
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := problems[rng.Intn(len(problems))]
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				if _, err := c.SuggestRemote(ctx, crowd.SuggestRequest{TuningProblemName: p}); err == nil {
					suggests.Add(1)
				}
				cancel()
				time.Sleep(2 * time.Millisecond)
			}
		}(g)
	}

	// Workers: submit a task, lease whatever comes back, complete it.
	var (
		taskMu         sync.Mutex
		submittedTasks []string
		completedTasks []string
	)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newStressClient(coordTS.URL, key)
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				p := problems[(w+k)%len(problems)]
				id, err := c.SubmitTaskContext(context.Background(), taskpool.Spec{App: p, Budget: 2})
				if err == nil {
					taskMu.Lock()
					submittedTasks = append(submittedTasks, id)
					taskMu.Unlock()
				}
				task, _, err := c.LeaseTaskContext(context.Background(), fmt.Sprintf("worker-%d", w), taskpool.MachineConstraint{})
				if err == nil && task != nil {
					if err := c.CompleteTaskContext(context.Background(), task.ID, task.LeaseToken, taskpool.Result{BestY: 1, NumEvals: 2}); err == nil {
						taskMu.Lock()
						completedTasks = append(completedTasks, task.ID)
						taskMu.Unlock()
					}
				}
				time.Sleep(5 * time.Millisecond)
			}
		}(w)
	}

	// Let traffic flow, then kill shard s1's leader mid-stream and
	// promote its follower over HTTP (the operator path).
	time.Sleep(400 * time.Millisecond)
	victim := shards[1]
	victim.leaderTS.CloseClientConnections()
	victim.leaderTS.Close()
	promoteReq, _ := http.NewRequest(http.MethodPost, victim.followerTS.URL+"/api/v1/cluster/promote", strings.NewReader("{}"))
	promoteReq.Header.Set(TokenHeader, testToken)
	promoteResp, err := http.DefaultClient.Do(promoteReq)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	promoteResp.Body.Close()
	if promoteResp.StatusCode != http.StatusOK {
		t.Fatalf("promote: HTTP %d", promoteResp.StatusCode)
	}
	if got := victim.follower.Role(); got != RoleLeader {
		t.Fatalf("promoted follower role = %s", got)
	}

	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()

	if suggests.Load() == 0 {
		t.Fatal("no suggest request succeeded")
	}
	ackedMu.Lock()
	totalAcked := 0
	for _, uids := range acked {
		totalAcked += len(uids)
	}
	ackedMu.Unlock()
	if totalAcked == 0 {
		t.Fatal("no upload was acknowledged; stress produced nothing to verify")
	}

	// Zero lost acknowledged samples: every acked uid is queryable
	// through the coordinator after the failover.
	for _, p := range problems {
		evals, err := admin.Query(crowd.QueryRequest{TuningProblemName: p})
		if err != nil {
			t.Fatalf("query %s: %v", p, err)
		}
		stored := make(map[string]bool, len(evals))
		for _, ev := range evals {
			if uid, _ := ev.TaskParams["uid"].(string); uid != "" {
				stored[uid] = true
			}
		}
		ackedMu.Lock()
		uids := append([]string(nil), acked[p]...)
		ackedMu.Unlock()
		for _, uid := range uids {
			if !stored[uid] {
				t.Fatalf("acknowledged sample %s lost after failover", uid)
			}
		}
	}

	// Zero lost acknowledged tasks: submissions and completions both
	// survived.
	tasks, err := admin.ListTasksContext(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]taskpool.Task, len(tasks))
	for _, task := range tasks {
		byID[task.ID] = task
	}
	taskMu.Lock()
	defer taskMu.Unlock()
	for _, id := range submittedTasks {
		if _, ok := byID[id]; !ok {
			t.Fatalf("acknowledged task %s lost after failover", id)
		}
	}
	for _, id := range completedTasks {
		if st := byID[id].State; st != taskpool.StateCompleted {
			t.Fatalf("completed task %s has state %s", id, st)
		}
	}

	// Surviving shards: follower state is byte-identical to the leader
	// (the commit barrier means every acknowledged write reached it;
	// traffic is quiesced, so the heads line up).
	for _, s := range []*testShard{shards[0], shards[2]} {
		for _, name := range logNamesOf(s.leader) {
			lead := machineSnapshot(t, s.leader, name)
			foll := machineSnapshot(t, s.follower, name)
			deadline := time.Now().Add(3 * time.Second)
			for !bytes.Equal(lead, foll) && time.Now().Before(deadline) {
				time.Sleep(20 * time.Millisecond)
				foll = machineSnapshot(t, s.follower, name)
			}
			if !bytes.Equal(lead, foll) {
				t.Fatalf("shard %s: follower %s state differs from leader", s.id, name)
			}
		}
	}

	// Oracle replay: each shard's live state equals a from-scratch
	// replay of its current leader's logs.
	current := []*Node{shards[0].leader, shards[1].follower, shards[2].leader}
	for i, n := range current {
		for _, name := range logNamesOf(n) {
			live := machineSnapshot(t, n, name)
			oracle := oracleSnapshot(t, n, name)
			if !bytes.Equal(live, oracle) {
				t.Fatalf("shard s%d: %s live state differs from log replay oracle", i, name)
			}
		}
	}

	// The coordinator's stats view reflects the new topology: three
	// healthy shards, s1 led by the promoted follower.
	statsResp, err := http.Post(coordTS.URL+"/api/v1/stats", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var cs ClusterStats
	if err := json.NewDecoder(statsResp.Body).Decode(&cs); err != nil {
		t.Fatal(err)
	}
	if len(cs.Shards) != 3 {
		t.Fatalf("stats reports %d shards, want 3", len(cs.Shards))
	}
	for _, s := range cs.Shards {
		if !s.Healthy {
			t.Fatalf("shard %s unhealthy in stats after failover (leader %s)", s.ID, s.Leader)
		}
		if s.ID == "s1" && s.Leader != shards[1].followerTS.URL {
			t.Fatalf("shard s1 leader = %s, want promoted follower %s", s.Leader, shards[1].followerTS.URL)
		}
	}
}
