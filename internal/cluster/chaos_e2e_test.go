package cluster

// Randomized self-healing e2e: 3 shards × 2 replicas behind a
// coordinator with the failure detector running, all HTTP paths routed
// through the internal/chaos harness. A seeded schedule kills and
// partitions leaders and followers mid-stream across several rounds;
// nothing ever calls promote by hand — recovery is entirely the
// supervisor's (detection, epoch-CAS promotion, demotion, re-attach,
// truncation resync). Invariants at the end: zero acknowledged samples
// lost, byte-identical replicas per shard, every shard on exactly one
// leader at its highest epoch, and live state equal to a from-scratch
// log replay. Run under -race (the CI stress suite does, over a fixed
// seed matrix; set CHAOS_SEED to replay a specific schedule).

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gptunecrowd/internal/chaos"
	"gptunecrowd/internal/crowd"
	"gptunecrowd/internal/space"
)

// chaosShard is one shard's deployment with its chaos host keys.
type chaosShard struct {
	id    string
	nodes [2]*Node
	ts    [2]*httptest.Server
	hosts [2]string
}

// nodesByRole splits the pair by current role; leader is nil unless
// exactly one node leads.
func (s *chaosShard) nodesByRole() (leader, follower *Node, leaderHost string) {
	for i, n := range s.nodes {
		if n.Role() == RoleLeader {
			if leader != nil {
				return nil, nil, ""
			}
			leader = n
			leaderHost = s.hosts[i]
		} else {
			follower = n
		}
	}
	return leader, follower, leaderHost
}

func newChaosNode(t *testing.T, net *chaos.Network, shard string, leader bool, problems []string, sp *space.Space) (*Node, *httptest.Server, string) {
	t.Helper()
	ts := httptest.NewUnstartedServer(nil)
	host := ts.Listener.Addr().String()
	n, err := NewNode(NodeConfig{
		Shard:             shard,
		Leader:            leader,
		Token:             testToken,
		CommitTimeout:     2 * time.Second,
		HeartbeatInterval: 50 * time.Millisecond,
		PushTimeout:       250 * time.Millisecond,
		InternalClient:    net.Client(host),
		Crowd:             crowd.Config{SuggestSeed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		n.Server().RegisterProblemPolicy(p, crowd.ProblemPolicy{Space: sp})
	}
	ts.Config.Handler = net.Gate(host, n)
	ts.Start()
	n.SetAdvertise(ts.URL)
	t.Cleanup(func() { ts.Close(); n.Close() })
	return n, ts, host
}

const coordChaosHost = "coordinator"

func newChaosCluster(t *testing.T, net *chaos.Network, problems []string) (*Coordinator, *httptest.Server, []*chaosShard) {
	t.Helper()
	sp := testSpace(t)
	shards := make([]*chaosShard, 3)
	topo := Topology{Version: 1}
	for i := range shards {
		id := fmt.Sprintf("s%d", i)
		s := &chaosShard{id: id}
		for j := 0; j < 2; j++ {
			s.nodes[j], s.ts[j], s.hosts[j] = newChaosNode(t, net, id, j == 0, problems, sp)
		}
		s.nodes[0].AttachFollower(s.ts[1].URL, nil)
		shards[i] = s
		topo.Shards = append(topo.Shards, ShardInfo{ID: id, Leader: s.ts[0].URL, Epoch: 1, Replicas: []string{s.ts[1].URL}})
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Topology: topo,
		Token:    testToken,
		HTTP: &http.Client{
			Transport:     net.Transport(coordChaosHost, nil),
			CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
		},
		ProbeTimeout:   250 * time.Millisecond,
		RetryBaseDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(coord)
	t.Cleanup(coordTS.Close)
	sup := coord.StartSupervisor(SupervisorConfig{Interval: 100 * time.Millisecond, Misses: 2})
	t.Cleanup(sup.Stop)
	return coord, coordTS, shards
}

// waitShardHealed blocks until the shard has exactly one leader, its
// peer is an unfenced follower at the same epoch whose logs have
// caught up to the leader's sampled heads, and the coordinator routes
// to that leader. The catch-up barrier matters across rounds: writes
// acknowledged while the follower was dead exist only on the leader
// until replication drains, and only after it drains may the next
// round kill that leader without losing acknowledged state.
func waitShardHealed(t *testing.T, c *Coordinator, s *chaosShard, timeout time.Duration) (*Node, *Node) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		lead, fol, _ := s.nodesByRole()
		if lead == nil || fol == nil || fol.Fenced() || lead.Epoch() != fol.Epoch() {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		caughtUp := true
		for _, name := range logNamesOf(lead) {
			head := lead.Log(name).LastIndex()
			if fol.Log(name).LastIndex() < head {
				caughtUp = false
				break
			}
		}
		info, ok := c.shardInfo(s.id)
		if caughtUp && ok && info.Leader == lead.Advertise() {
			return lead, fol
		}
		time.Sleep(20 * time.Millisecond)
	}
	lead, fol, _ := s.nodesByRole()
	t.Fatalf("shard %s did not heal within %v (leader=%v follower=%v)", s.id, timeout, lead != nil, fol != nil)
	return nil, nil
}

// chaosRound injects one fault against a shard, lets traffic run, then
// heals and waits for the shard to converge. kind: 0 kill leader,
// 1 kill follower, 2 partition leader↔follower, 3 partition
// coordinator↔leader.
func chaosRound(t *testing.T, net *chaos.Network, c *Coordinator, s *chaosShard, kind int, soak func(time.Duration)) {
	t.Helper()
	lead, _, leadHost := s.nodesByRole()
	if lead == nil {
		t.Fatalf("shard %s entered a round without a unique leader", s.id)
	}
	folHost := s.hosts[0]
	if folHost == leadHost {
		folHost = s.hosts[1]
	}
	switch kind {
	case 0:
		t.Logf("round: kill leader %s of %s", leadHost, s.id)
		net.Kill(leadHost)
		soak(1200 * time.Millisecond)
		net.Revive(leadHost)
	case 1:
		t.Logf("round: kill follower %s of %s", folHost, s.id)
		net.Kill(folHost)
		soak(1200 * time.Millisecond)
		net.Revive(folHost)
	case 2:
		t.Logf("round: partition leader %s from follower %s of %s", leadHost, folHost, s.id)
		net.Partition(leadHost, folHost)
		soak(1200 * time.Millisecond)
		net.Heal(leadHost, folHost)
	case 3:
		t.Logf("round: partition coordinator from leader %s of %s", leadHost, s.id)
		net.Partition(coordChaosHost, leadHost)
		soak(1200 * time.Millisecond)
		net.Heal(coordChaosHost, leadHost)
	}
	waitShardHealed(t, c, s, 15*time.Second)
}

// TestClusterChaosStressAutoFailover is the self-healing member of the
// -race stress family: injected faults only, no manual promotions.
func TestClusterChaosStressAutoFailover(t *testing.T) {
	seed := int64(1)
	if env := os.Getenv("CHAOS_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", env, err)
		}
		seed = v
	}
	t.Logf("chaos seed %d", seed)
	sched := chaos.NewSchedule(seed)
	net := chaos.NewNetwork(nil)

	problems := []string{"p0", "p1", "p2", "p3"}
	coord, coordTS, shards := newChaosCluster(t, net, problems)
	start := time.Now()
	for _, p := range problems {
		t.Logf("problem %s owned by shard %s", p, coord.ownerOf(p))
	}

	admin := newStressClient(coordTS.URL, "")
	key, err := admin.Register("carol", "carol@hpc.example")
	if err != nil {
		t.Fatalf("register through coordinator: %v", err)
	}
	admin.APIKey = key

	for pi, p := range problems {
		seedBatch := make([]crowd.FuncEval, 6)
		for i := range seedBatch {
			seedBatch[i] = stressEval(p, fmt.Sprintf("seed-%s-%d", p, i), pi*6+i)
		}
		if _, err := admin.Upload(seedBatch); err != nil {
			t.Fatalf("seed upload %s: %v", p, err)
		}
	}

	var (
		wg      sync.WaitGroup
		stop    = make(chan struct{})
		ackedMu sync.Mutex
		acked   = make(map[string][]string)
		ackTime = make(map[string]time.Duration)
	)
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
				batch := make([]crowd.FuncEval, 2)
				uids := make([]string, 2)
				for j := range batch {
					uids[j] = fmt.Sprintf("c-%s-%d-%d", p, k, j)
					batch[j] = stressEval(p, uids[j], pi+k+j)
				}
				if _, err := c.Upload(batch); err == nil {
					ackedMu.Lock()
					acked[p] = append(acked[p], uids...)
					for _, u := range uids {
						ackTime[u] = time.Since(start)
					}
					ackedMu.Unlock()
				}
				time.Sleep(10 * time.Millisecond)
			}
		}(pi, p)
	}
	soak := func(d time.Duration) { time.Sleep(d) }

	audit := func(round int) {
		snapshot := make(map[string][]string)
		ackedMu.Lock()
		for p, u := range acked {
			snapshot[p] = append([]string(nil), u...)
		}
		ackedMu.Unlock()
		for _, p := range problems {
			evals, err := admin.Query(crowd.QueryRequest{TuningProblemName: p})
			if err != nil {
				t.Fatalf("round %d audit query %s: %v", round, p, err)
			}
			stored := make(map[string]bool, len(evals))
			for _, ev := range evals {
				if uid, _ := ev.TaskParams["uid"].(string); uid != "" {
					stored[uid] = true
				}
			}
			for _, uid := range snapshot[p] {
				if !stored[uid] {
					ackedMu.Lock()
					at := ackTime[uid]
					ackedMu.Unlock()
					owner := coord.ownerOf(p)
					for _, s := range shards {
						if s.id != owner {
							continue
						}
						for i, n := range s.nodes {
							snap := machineSnapshot(t, n, "func_evals")
							lg := n.Log("func_evals")
							inLog := false
							var sb strings.Builder
							snapIdx, _, _ := lg.Snapshot(&sb)
							if strings.Contains(sb.String(), uid) {
								inLog = true
							}
							for at := snapIdx; !inLog; {
								ents, err := lg.Entries(at, 512)
								if err != nil || len(ents) == 0 {
									break
								}
								for _, e := range ents {
									if bytes.Contains(e.Payload, []byte(uid)) {
										inLog = true
									}
									at = e.Index
								}
							}
							t.Logf("node %s (%s, epoch %d, fenced %v) machine-has=%v log-has=%v head=%d snap=%d",
								s.hosts[i], n.Role(), n.Epoch(), n.Fenced(),
								bytes.Contains(snap, []byte(uid)), inLog,
								lg.LastIndex(), snapIdx)
						}
					}
					t.Fatalf("round %d audit: %s (acked t=%v, shard %s) missing", round, uid, at, owner)
				}
			}
		}
	}

	const rounds = 5
	for r := 0; r < rounds; r++ {
		s := shards[sched.Pick(len(shards))]
		kind := sched.Pick(4)
		t.Logf("t=%v round %d begins", time.Since(start), r)
		chaosRound(t, net, coord, s, kind, soak)
		t.Logf("t=%v round %d healed", time.Since(start), r)
		audit(r)
	}

	close(stop)
	wg.Wait()

	// Final convergence with traffic quiesced.
	for _, s := range shards {
		waitShardHealed(t, coord, s, 15*time.Second)
	}

	ackedMu.Lock()
	totalAcked := 0
	for _, uids := range acked {
		totalAcked += len(uids)
	}
	ackedMu.Unlock()
	if totalAcked == 0 {
		t.Fatal("no upload was acknowledged; chaos rounds produced nothing to verify")
	}
	t.Logf("acknowledged %d samples across %d chaos rounds", totalAcked, rounds)

	// Zero acknowledged-sample loss through every injected fault.
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
				ackedMu.Lock()
				at := ackTime[uid]
				ackedMu.Unlock()
				t.Fatalf("acknowledged sample %s (acked at t=%v) lost after chaos rounds", uid, at)
			}
		}
	}

	// Exactly one leader per shard at its highest epoch, surviving
	// replicas byte-identical, and live state equal to the log-replay
	// oracle.
	for _, s := range shards {
		lead, fol, _ := s.nodesByRole()
		if lead == nil || fol == nil {
			t.Fatalf("shard %s has no unique leader after healing", s.id)
		}
		if lead.Epoch() < fol.Epoch() {
			t.Fatalf("shard %s leader epoch %d below follower epoch %d", s.id, lead.Epoch(), fol.Epoch())
		}
		if fol.Fenced() {
			t.Fatalf("shard %s follower still fenced after healing", s.id)
		}
		for _, name := range logNamesOf(lead) {
			a := machineSnapshot(t, lead, name)
			b := machineSnapshot(t, fol, name)
			deadline := time.Now().Add(5 * time.Second)
			for !bytes.Equal(a, b) && time.Now().Before(deadline) {
				time.Sleep(25 * time.Millisecond)
				b = machineSnapshot(t, fol, name)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("shard %s: %s replica state diverges from leader after healing", s.id, name)
			}
			live := machineSnapshot(t, lead, name)
			oracle := oracleSnapshot(t, lead, name)
			if !bytes.Equal(live, oracle) {
				t.Fatalf("shard %s: %s live state differs from log replay oracle", s.id, name)
			}
		}
	}

	// The harness actually injected faults (the schedule cannot be a
	// no-op) and the detector did the promotions.
	if net.Metrics().Kills.Value()+net.Metrics().Partitions.Value() == 0 {
		t.Fatal("chaos schedule injected no faults")
	}
}
