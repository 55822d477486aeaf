package cluster

// The public API's wire contract, one row of crowd.Endpoints() at a
// time, on every tier that serves it — a bare crowd.Server, a leader
// node, followers (fresh, stale, leaderless) and a coordinator over two
// shards — plus a fixed script of requests whose answers through the
// coordinator must equal a single server's.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"gptunecrowd/internal/crowd"
	"gptunecrowd/internal/taskpool"
)

const contractKey = "contract-key-0001"

var contractProblems = []string{"p0", "p1", "p2", "p3", "p4", "p5"}

// probeBody is a request body that lets the row's routing reach a
// shard, so the probes below test the row and not the router's parser.
func probeBody(e crowd.Endpoint) string {
	switch e.Route {
	case crowd.RouteByProblem:
		return `{"tuning_problem_name":"p0","spec":{"app":"demo","budget":1}}`
	case crowd.RouteByID:
		return `{"id":"s0/t1","lease_token":"none"}`
	}
	if e.Path == crowd.PathRegister {
		return `{"username":"probe-` + fmt.Sprint(time.Now().UnixNano()) + `"}`
	}
	return `{}`
}

// otherMethod is a method the row does not allow.
func otherMethod(e crowd.Endpoint) string {
	if slices.Contains(e.Methods, http.MethodGet) {
		return http.MethodPut
	}
	return http.MethodGet
}

func contractCall(h http.Handler, method, path, key, body string) *httptest.ResponseRecorder {
	return wireCall(h, method, path, key, strings.NewReader(body))
}

func TestEndpointContract(t *testing.T) {
	sp := testSpace(t)
	bare := crowd.NewServerWith(crowd.Config{SuggestSeed: 11})
	for _, p := range contractProblems {
		bare.RegisterProblemPolicy(p, crowd.ProblemPolicy{Space: sp})
	}
	coordTS, shards := newTestCluster(t, 2, contractProblems)
	coord := coordTS.Config.Handler
	leader, fresh := shards[0].leaderTS.Config.Handler, shards[0].followerTS.Config.Handler

	// One account everywhere; on the cluster it replicates to followers
	// and teaches them who leads.
	register := `{"username":"alice","api_key":"` + contractKey + `"}`
	for name, h := range map[string]http.Handler{"server": bare, "coordinator": coord} {
		if rec := contractCall(h, http.MethodPost, crowd.PathRegister, "", register); rec.Code != http.StatusOK {
			t.Fatalf("%s: register: %d %s", name, rec.Code, rec.Body)
		}
	}

	// A follower whose leader went quiet past its staleness window, and
	// one that never heard from a leader.
	staleNode, err := NewNode(NodeConfig{Shard: "s0", Token: testToken, StalenessWindow: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	staleTS := httptest.NewServer(staleNode)
	t.Cleanup(func() { staleTS.Close(); staleNode.Close() })
	gone := httptest.NewServer(http.NotFoundHandler())
	goneLeader := gone.URL
	gone.Close()
	heartbeatAs(t, staleTS.URL, goneLeader, 1)
	for deadline := time.Now().Add(5 * time.Second); staleNode.freshEnough(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("follower never went stale")
		}
	}
	_, orphanTS := newTestNode(t, "s0", false, nil, sp)
	stale, orphan := staleTS.Config.Handler, orphanTS.Config.Handler

	everyTier := map[string]http.Handler{
		"server": bare, "leader": leader, "fresh follower": fresh,
		"stale follower": stale, "leaderless follower": orphan, "coordinator": coord,
	}
	for _, e := range crowd.Endpoints() {
		body := probeBody(e)
		// A method outside the row's is 405 on every tier, before the
		// role gate, auth or routing look at the request.
		for name, h := range everyTier {
			if rec := contractCall(h, otherMethod(e), e.Path, contractKey, body); rec.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s: %s %s = %d, want 405", name, otherMethod(e), e.Path, rec.Code)
			}
		}

		// A body that is not JSON gets the same answer through the
		// coordinator as from a single server (400, or 200 where the row
		// reads no body), wherever along the route it is noticed.
		want := contractCall(bare, http.MethodPost, e.Path, contractKey, "{").Code
		if got := contractCall(coord, http.MethodPost, e.Path, contractKey, "{").Code; got != want || (want != http.StatusBadRequest && want != http.StatusOK) {
			t.Errorf("POST %s with a truncated body: server %d, coordinator %d", e.Path, want, got)
		}

		// 401 iff the row requires a key; a valid key gets past auth
		// (whatever the handler then thinks of the probe body). A follower
		// bounces writes before auth, so it answers for its reads only.
		authTiers := map[string]http.Handler{"server": bare, "leader": leader, "coordinator": coord}
		if e.Class != crowd.ClassWrite {
			authTiers["fresh follower"] = fresh
		}
		for name, h := range authTiers {
			for _, key := range []string{"", "not-a-registered-key"} {
				got := contractCall(h, http.MethodPost, e.Path, key, probeBody(e)).Code
				if (got == http.StatusUnauthorized) != e.Auth {
					t.Errorf("%s: POST %s with key %q = %d; Auth is %v", name, e.Path, key, got, e.Auth)
				}
			}
			if got := contractCall(h, http.MethodPost, e.Path, contractKey, probeBody(e)).Code; got == http.StatusUnauthorized ||
				got == http.StatusMethodNotAllowed || got == http.StatusBadGateway || got >= 500 {
				t.Errorf("%s: POST %s with a valid key = %d", name, e.Path, got)
			}
		}

		// The role gate reads Class.
		switch e.Class {
		case crowd.ClassWrite:
			for name, tier := range map[string]struct {
				h      http.Handler
				leader string
			}{"fresh follower": {fresh, shards[0].leaderTS.URL}, "stale follower": {stale, goneLeader}} {
				rec := contractCall(tier.h, http.MethodPost, e.Path, contractKey, body)
				if rec.Code != http.StatusTemporaryRedirect ||
					rec.Header().Get(crowd.ShardLeaderHeader) != tier.leader ||
					rec.Header().Get("Location") != tier.leader+e.Path {
					t.Errorf("%s: POST %s = %d, leader %q, location %q; want 307 to %s", name, e.Path, rec.Code,
						rec.Header().Get(crowd.ShardLeaderHeader), rec.Header().Get("Location"), tier.leader)
				}
			}
			if rec := contractCall(orphan, http.MethodPost, e.Path, contractKey, body); rec.Code != http.StatusMisdirectedRequest {
				t.Errorf("leaderless follower: POST %s = %d, want 421", e.Path, rec.Code)
			}
		case crowd.ClassFreshRead:
			rec := contractCall(stale, http.MethodPost, e.Path, contractKey, body)
			if rec.Code != http.StatusPreconditionFailed || rec.Header().Get(crowd.ShardLeaderHeader) != goneLeader {
				t.Errorf("stale follower: POST %s = %d, leader %q; want 412 naming the leader", e.Path, rec.Code, rec.Header().Get(crowd.ShardLeaderHeader))
			}
			if rec := contractCall(orphan, http.MethodPost, e.Path, contractKey, body); rec.Code != http.StatusPreconditionFailed {
				t.Errorf("leaderless follower: POST %s = %d, want 412", e.Path, rec.Code)
			}
		case crowd.ClassLocal:
			for name, h := range everyTier {
				if rec := contractCall(h, http.MethodGet, e.Path, "", ""); rec.Code != http.StatusOK {
					t.Errorf("%s: GET %s = %d, want 200", name, e.Path, rec.Code)
				}
			}
		default:
			t.Errorf("%s has unknown class %q", e.Path, e.Class)
		}
	}

	// An id without a known shard prefix cannot route.
	for _, id := range []string{"t1", "s9/t1", "s0/"} {
		rec := contractCall(coord, http.MethodPost, crowd.PathTaskHeartbeat, contractKey, `{"id":"`+id+`"}`)
		if rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), "wrong_shard") {
			t.Errorf("coordinator: heartbeat for id %q = %d %s, want 404 wrong_shard", id, rec.Code, rec.Body)
		}
	}
	// The metrics page is not an API row but every tier serves it.
	for name, h := range everyTier {
		if rec := contractCall(h, http.MethodGet, "/metrics", "", ""); rec.Code != http.StatusOK {
			t.Errorf("%s: GET /metrics = %d", name, rec.Code)
		}
	}

	// The probes above queued and leased tasks; the script wants both
	// deployments equally empty, so it runs on fresh ones.
	bare = crowd.NewServerWith(crowd.Config{SuggestSeed: 11})
	for _, p := range contractProblems {
		bare.RegisterProblemPolicy(p, crowd.ProblemPolicy{Space: sp})
	}
	coordTS, shards = newTestCluster(t, 2, contractProblems)
	single := contractScript(t, "server", bare)
	merged := contractScript(t, "coordinator", coordTS.Config.Handler)
	t.Logf("script transcript (%d steps):\n%s", len(single), strings.Join(single, "\n"))
	for i := range single {
		if i >= len(merged) || single[i] != merged[i] {
			t.Errorf("script step %d differs:\n  server:      %s\n  coordinator: %s", i, single[i], at(merged, i))
		}
	}
	for _, s := range shards {
		for _, coll := range []string{"func_evals", "surrogate_models", "quarantine"} {
			if s.leader.Server().Store().Collection(coll).Len() == 0 {
				t.Errorf("shard %s holds no %s: the script did not cross shards", s.id, coll)
			}
		}
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(missing)"
}

// contractScript drives a fixed sequence of requests at one deployment
// and returns what it answered, one line per step, with everything that
// legitimately differs between one server and a cluster left out: the
// values of store-assigned ids (each shard counts its own), the "shard/"
// prefix on task and quarantine ids, lease tokens and clocks.
func contractScript(t *testing.T, name string, h http.Handler) []string {
	t.Helper()
	var lines []string
	note := func(format string, args ...interface{}) { lines = append(lines, fmt.Sprintf(format, args...)) }
	// call posts body (any JSON-encodable value) and decodes the reply.
	call := func(method, path string, body, out interface{}) int {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := contractCall(h, method, path, contractKey, string(b))
		if out != nil && rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
				t.Fatalf("%s: %s: undecodable reply %q: %v", name, path, rec.Body, err)
			}
		}
		return rec.Code
	}
	post := func(path string, body, out interface{}) int { return call(http.MethodPost, path, body, out) }

	rec := contractCall(h, http.MethodPost, crowd.PathRegister, "", `{"username":"alice","api_key":"`+contractKey+`"}`)
	note("register: %d %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	rec = contractCall(h, http.MethodPost, crowd.PathRegister, "", `{"username":"alice","api_key":"another-key-0002"}`)
	note("register taken name: %d", rec.Code)

	// One batch over every problem: a good sample, a sample outside the
	// registered space (quarantined), and for p0 a run of samples on one
	// task so a surrogate can fit.
	var batch []crowd.FuncEval
	for i, p := range contractProblems {
		batch = append(batch, stressEval(p, "good-"+p, i))
		bad := stressEval(p, "bad-"+p, i)
		bad.TuningParams["x"] = 7.0
		batch = append(batch, bad)
	}
	for i := 0; i < 6; i++ {
		batch = append(batch, stressEval("p0", "hot", i))
	}
	upload := crowd.UploadRequest{FuncEvals: batch, BatchID: "contract-batch-1"}
	for _, step := range []string{"upload", "upload replayed"} {
		var up crowd.UploadResponse
		status := post(crowd.PathFuncEvalUpload, upload, &up)
		var held []string
		for _, q := range up.Quarantined {
			held = append(held, fmt.Sprintf("%d:%s", q.Index, q.Reason))
		}
		sort.Strings(held)
		note("%s: %d, %d ids, quarantined %v", step, status, len(up.IDs), held)
	}
	note("upload of nothing: %d", post(crowd.PathFuncEvalUpload, crowd.UploadRequest{}, nil))

	uids := func(evals []crowd.FuncEval) []string {
		var out []string
		for _, ev := range evals {
			out = append(out, fmt.Sprint(ev.TaskParams["uid"]))
		}
		sort.Strings(out)
		return out
	}
	query := func(step string) {
		for _, p := range contractProblems {
			var q crowd.QueryResponse
			status := post(crowd.PathFuncEvalQuery, crowd.QueryRequest{TuningProblemName: p}, &q)
			note("%s %s: %d %v", step, p, status, uids(q.FuncEvals))
		}
	}
	query("query")
	note("query without a problem: %d", post(crowd.PathFuncEvalQuery, crowd.QueryRequest{}, nil))
	for _, method := range []string{http.MethodGet, http.MethodPost} {
		rec := contractCall(h, method, crowd.PathProblems, contractKey, "{}")
		note("%s problems: %d %s", method, rec.Code, strings.TrimSpace(rec.Body.String()))
	}

	var models []crowd.SurrogateModelDoc
	for i, p := range contractProblems {
		models = append(models, crowd.SurrogateModelDoc{TuningProblemName: p, NumSamples: 10 + i, Model: json.RawMessage(`{"kind":"stub"}`)})
	}
	var mu crowd.ModelUploadResponse
	status := post(crowd.PathSurrogateUpload, crowd.ModelUploadRequest{Models: models, BatchID: "contract-models-1"}, &mu)
	note("model upload: %d, %d ids", status, len(mu.IDs))
	for _, p := range contractProblems {
		var mq crowd.ModelQueryResponse
		status := post(crowd.PathSurrogateQuery, crowd.ModelQueryRequest{TuningProblemName: p}, &mq)
		var sizes []int
		for _, m := range mq.Models {
			sizes = append(sizes, m.NumSamples)
		}
		note("model query %s: %d %v", p, status, sizes)
	}

	var sg crowd.SuggestResponse
	status = post(crowd.PathSuggest, crowd.SuggestRequest{TuningProblemName: "p0", TaskParams: map[string]interface{}{"uid": "hot"}}, &sg)
	note("suggest: %d, %d samples, %s, %v", status, sg.ModelSamples, sg.Proposer, sg.TuningParams)
	note("suggest unknown problem: %d", post(crowd.PathSuggest, crowd.SuggestRequest{TuningProblemName: "nope"}, nil))

	// One task through its whole lifecycle: lease, heartbeat, hand back
	// with a checkpoint, lease again, complete; then the stale token.
	spec := func(p string, seed int64) crowd.TaskSubmitRequest {
		return crowd.TaskSubmitRequest{Spec: taskpool.Spec{App: "demo", TuningProblemName: p, Budget: 3, Seed: seed}}
	}
	var sub crowd.TaskSubmitResponse
	note("submit: %d", post(crowd.PathTaskSubmit, spec("p1", 1), &sub))
	note("submit without an app: %d", post(crowd.PathTaskSubmit, crowd.TaskSubmitRequest{}, nil))
	var firstToken string
	for attempt := 1; attempt <= 2; attempt++ {
		var lease crowd.TaskLeaseResponse
		status := post(crowd.PathTaskLease, crowd.TaskLeaseRequest{Worker: "w"}, &lease)
		if lease.Task == nil {
			t.Fatalf("%s: lease %d found nothing (status %d)", name, attempt, status)
		}
		task := lease.Task
		if task.ID != sub.ID {
			t.Errorf("%s: leased id %q, submitted %q", name, task.ID, sub.ID)
		}
		note("lease %d: %d %s attempt %d checkpoint %s ttl>0 %v", attempt, status, task.Spec.TuningProblemName,
			task.Attempts, task.Spec.Checkpoint, lease.LeaseTTLSeconds > 0)
		var hb crowd.TaskHeartbeatResponse
		status = post(crowd.PathTaskHeartbeat, crowd.TaskHeartbeatRequest{ID: task.ID, LeaseToken: task.LeaseToken}, &hb)
		note("heartbeat %d: %d renewed %v", attempt, status, hb.LeaseExpires.After(time.Now()))
		if attempt == 1 {
			firstToken = task.LeaseToken
			var failed crowd.TaskFailResponse
			status = post(crowd.PathTaskFail, crowd.TaskFailRequest{ID: task.ID, LeaseToken: task.LeaseToken, Reason: "drain", Checkpoint: json.RawMessage(`{"iter":2}`)}, &failed)
			note("fail: %d %s", status, failed.State)
			continue
		}
		var done crowd.TaskCompleteResponse
		status = post(crowd.PathTaskComplete, crowd.TaskCompleteRequest{ID: task.ID, LeaseToken: task.LeaseToken, Result: taskpool.Result{BestY: 1.5, NumEvals: 3}}, &done)
		note("complete: %d %v", status, done.OK)
		note("heartbeat with the first lease's token: %d", post(crowd.PathTaskHeartbeat, crowd.TaskHeartbeatRequest{ID: task.ID, LeaseToken: firstToken}, nil))
	}
	note("heartbeat for an unknown task: %d", post(crowd.PathTaskHeartbeat, crowd.TaskHeartbeatRequest{ID: "nope", LeaseToken: "x"}, nil))
	var empty crowd.TaskLeaseResponse
	note("lease on a drained pool: %d task %v", post(crowd.PathTaskLease, crowd.TaskLeaseRequest{Worker: "w"}, &empty), empty.Task != nil)
	for i, p := range contractProblems {
		post(crowd.PathTaskSubmit, spec(p, int64(10+i)), nil)
	}
	for _, state := range []taskpool.State{"", taskpool.StateQueued, taskpool.StateCompleted} {
		var list crowd.TaskListResponse
		status := post(crowd.PathTaskList, crowd.TaskListRequest{State: state}, &list)
		var seen []string
		for _, task := range list.Tasks {
			if task.LeaseToken != "" {
				t.Errorf("%s: listing leaks a lease token", name)
			}
			seen = append(seen, fmt.Sprintf("%s/%d:%s", task.Spec.TuningProblemName, task.Spec.Seed, task.State))
		}
		sort.Strings(seen)
		note("list %q: %d %v", state, status, seen)
	}

	// Quarantine: the listing (whole, filtered, limited), then a release
	// routed by the listed id, replayed, and visible to queries.
	listHeld := func(req crowd.QuarantineListRequest) []crowd.QuarantinedSample {
		var list crowd.QuarantineListResponse
		status := post(crowd.PathQuarantine, req, &list)
		var held []string
		for _, item := range list.Items {
			held = append(held, fmt.Sprintf("%v:%s:%v", item.Sample.TaskParams["uid"], item.Reason, item.Released))
		}
		sort.Strings(held)
		if req.Limit > 0 {
			held = []string{fmt.Sprint(len(held), " items")} // which ones is store order
		}
		note("quarantine %+v: %d %v", req, status, held)
		return list.Items
	}
	held := listHeld(crowd.QuarantineListRequest{})
	listHeld(crowd.QuarantineListRequest{Reason: "param_out_of_range"})
	listHeld(crowd.QuarantineListRequest{Reason: "nothing-has-this-reason"})
	listHeld(crowd.QuarantineListRequest{Limit: 1})
	listHeld(crowd.QuarantineListRequest{Limit: 4})
	if len(held) == 0 {
		t.Fatalf("%s: nothing quarantined", name)
	}
	sort.Slice(held, func(i, j int) bool {
		return fmt.Sprint(held[i].Sample.TaskParams["uid"]) < fmt.Sprint(held[j].Sample.TaskParams["uid"])
	})
	var released, replayed crowd.QuarantineReleaseResponse
	status = post(crowd.PathQuarantineRelease, crowd.QuarantineReleaseRequest{ID: held[0].ID}, &released)
	note("release %v: %d got an id %v", held[0].Sample.TaskParams["uid"], status, released.FuncEvalID != "")
	status = post(crowd.PathQuarantineRelease, crowd.QuarantineReleaseRequest{ID: held[0].ID}, &replayed)
	note("release replayed: %d same id %v", status, replayed.FuncEvalID == released.FuncEvalID)
	note("release of an unknown id: %d", post(crowd.PathQuarantineRelease, crowd.QuarantineReleaseRequest{ID: "nope"}, nil))
	listHeld(crowd.QuarantineListRequest{})
	listHeld(crowd.QuarantineListRequest{IncludeReleased: true})
	query("query after release")

	for _, path := range []string{crowd.PathStats, crowd.PathHealthz} {
		note("GET %s: %d", path, call(http.MethodGet, path, struct{}{}, nil))
	}
	return lines
}

// TestCoordinatorJoinBuildsTopology: a coordinator started with no
// shards learns them from node joins — leaders create (or take over)
// their shard, followers append as replicas, duplicates are no-ops —
// and routes as soon as a shard has a leader.
func TestCoordinatorJoinBuildsTopology(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{Token: testToken})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(coord)
	t.Cleanup(coordTS.Close)
	sp := testSpace(t)
	_, s0 := newTestNode(t, "s0", true, []string{"p0"}, sp)
	_, s0b := newTestNode(t, "s0", false, []string{"p0"}, sp)
	_, s1 := newTestNode(t, "s1", true, []string{"p0"}, sp)

	if rec := contractCall(coord, http.MethodPost, crowd.PathTaskLease, "k", "{}"); rec.Code != http.StatusOK {
		t.Fatalf("lease on an empty topology = %d %s", rec.Code, rec.Body)
	}
	if rec := contractCall(coord, http.MethodPost, crowd.PathFuncEvalQuery, "k", `{"tuning_problem_name":"p0"}`); rec.Code != http.StatusBadGateway {
		t.Fatalf("query on an empty topology = %d, want 502", rec.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/api/v1/cluster/join", strings.NewReader(`{"shard":"s0","url":"http://x","role":"leader"}`))
	rec := httptest.NewRecorder()
	coord.ServeHTTP(rec, req)
	if rec.Code != http.StatusUnauthorized {
		t.Fatalf("join without the cluster token = %d, want 401", rec.Code)
	}
	if status, body := clusterPost(t, coordTS.URL, "/api/v1/cluster/join", map[string]string{"shard": "s0"}); status != http.StatusBadRequest {
		t.Fatalf("join without a url = %d %v, want 400", status, body)
	}

	join := func(shard, url string, role Role) Topology {
		t.Helper()
		status, _ := clusterPost(t, coordTS.URL, "/api/v1/cluster/join", joinRequest{Shard: shard, URL: url, Role: role})
		if status != http.StatusOK {
			t.Fatalf("join %s %s %s = %d", shard, url, role, status)
		}
		return coord.snapshotTopology()
	}
	join("s0", s0b.URL, RoleFollower) // a follower may arrive before its leader
	join("s0", s0.URL, RoleLeader)
	join("s0", s0b.URL, RoleFollower) // duplicate
	topo := join("s1", s1.URL, RoleLeader)
	if len(topo.Shards) != 2 || topo.Shards[0].Leader != s0.URL || strings.Join(topo.Shards[0].Replicas, ",") != s0b.URL || topo.Shards[1].Leader != s1.URL {
		t.Fatalf("topology after joins: %+v", topo)
	}
	// A leader join for a shard that has one is a takeover: the old
	// leader stays on as a replica.
	topo = join("s0", s0b.URL, RoleLeader)
	if topo.Shards[0].Leader != s0b.URL || strings.Join(topo.Shards[0].Replicas, ",") != s0.URL {
		t.Fatalf("topology after takeover: %+v", topo.Shards[0])
	}
	join("s0", s0.URL, RoleLeader)

	var served Topology
	rec = contractCall(coord, http.MethodGet, "/api/v1/cluster/topology", "", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &served); err != nil || served.Version != coord.snapshotTopology().Version {
		t.Fatalf("served topology %s: %v", rec.Body, err)
	}
	c := newStressClient(coordTS.URL, "")
	if _, err := c.Register("alice", ""); err != nil {
		t.Fatalf("register through the joined topology: %v", err)
	}
	if _, err := c.Upload([]crowd.FuncEval{stressEval("p0", "joined", 1)}); err != nil {
		t.Fatalf("upload through the joined topology: %v", err)
	}
}
