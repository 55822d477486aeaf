package cluster

// Wire-level regressions where a cluster used to answer differently
// from a single node: methods, the quarantine limit, and the body cap.

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gptunecrowd/internal/crowd"
	"gptunecrowd/internal/taskpool"
)

// wireCall drives one request straight through a handler.
func wireCall(h http.Handler, method, path, key string, body io.Reader) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, body)
	if key != "" {
		req.Header.Set("X-Api-Key", key)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestCoordinatorEnforcesNodeMethods: a GET on a POST-only route is 405
// on a node and must be 405 through the coordinator too — it used to be
// forwarded as a POST, so GET /tasks/lease leased a task.
func TestCoordinatorEnforcesNodeMethods(t *testing.T) {
	coordTS, shards := newTestCluster(t, 2, []string{"p0"})
	c := newStressClient(coordTS.URL, "")
	key, err := c.Register("alice", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitTaskContext(context.Background(), taskpool.Spec{App: "demo", TuningProblemName: "p0", Budget: 2}); err != nil {
		t.Fatal(err)
	}
	tiers := map[string]http.Handler{"node": shards[0].leaderTS.Config.Handler, "coordinator": coordTS.Config.Handler}
	for name, h := range tiers {
		for _, path := range []string{"/api/v1/tasks/lease", "/api/v1/func_eval/query", "/api/v1/tasks/list", "/api/v1/surrogate/query", "/api/v1/quarantine"} {
			if rec := wireCall(h, http.MethodGet, path, key, nil); rec.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s: GET %s = %d, want 405", name, path, rec.Code)
			}
		}
		// The routes a server really serves on GET stay GET-able.
		for _, path := range []string{"/api/v1/problems", "/api/v1/stats", "/api/v1/healthz"} {
			if rec := wireCall(h, http.MethodGet, path, key, nil); rec.Code != http.StatusOK {
				t.Errorf("%s: GET %s = %d, want 200: %s", name, path, rec.Code, rec.Body)
			}
		}
	}
	tasks, err := c.ListTasksContext(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 1 || tasks[0].State != taskpool.StateQueued {
		t.Fatalf("a GET leased the task: %+v", tasks)
	}
}

// TestCoordinatorQuarantineListAppliesLimit: the limit holds for the
// merged listing, not per shard, and the ids it returns still route a
// release back to the owning shard.
func TestCoordinatorQuarantineListAppliesLimit(t *testing.T) {
	problems := []string{"p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"}
	coordTS, shards := newTestCluster(t, 2, problems)
	c := newStressClient(coordTS.URL, "")
	if _, err := c.Register("alice", ""); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var batch []crowd.FuncEval
	for i, p := range problems {
		ev := stressEval(p, "held-"+p, i)
		ev.TuningParams["x"] = 7.0 // outside the registered space
		batch = append(batch, ev)
	}
	report, err := c.UploadReportContext(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Quarantined) != len(batch) {
		t.Fatalf("quarantined %d of %d", len(report.Quarantined), len(batch))
	}
	seen := make(map[int]bool)
	for _, q := range report.Quarantined {
		seen[q.Index] = true // sub-batch indices mapped back to the client's
	}
	for i := range batch {
		if !seen[i] {
			t.Fatalf("no quarantine report names batch position %d: %+v", i, report.Quarantined)
		}
	}
	for _, s := range shards {
		if s.leader.Server().Store().Collection("quarantine").Len() == 0 {
			t.Fatalf("shard %s holds nothing; the limit would not cross shards", s.id)
		}
	}
	all, err := c.QuarantineList(ctx, crowd.QuarantineListRequest{})
	if err != nil || len(all) != len(batch) {
		t.Fatalf("unlimited listing: %d items, err %v", len(all), err)
	}
	one, err := c.QuarantineList(ctx, crowd.QuarantineListRequest{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 {
		t.Fatalf("limit 1 returned %d items", len(one))
	}
	if !strings.Contains(one[0].ID, "/") {
		t.Fatalf("listed id %q lost its shard prefix", one[0].ID)
	}
	feID, err := c.QuarantineRelease(ctx, one[0].ID)
	if err != nil || feID == "" {
		t.Fatalf("release %s: id %q, err %v", one[0].ID, feID, err)
	}
	again, err := c.QuarantineRelease(ctx, one[0].ID)
	if err != nil || again != feID {
		t.Fatalf("replayed release: id %q (was %q), err %v", again, feID, err)
	}
	held, err := c.QuarantineList(ctx, crowd.QuarantineListRequest{})
	if err != nil || len(held) != len(batch)-1 {
		t.Fatalf("after release: %d held, err %v", len(held), err)
	}
}

// filler is an endless request body that is not JSON.
type filler struct{}

func (filler) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	return len(p), nil
}

// TestOversizedUploadRefused: an upload declaring more than the 64 MiB
// body cap is refused with 413 before any of it is read — on a bare
// server, on a node and through the coordinator alike.
func TestOversizedUploadRefused(t *testing.T) {
	coordTS, shards := newTestCluster(t, 1, []string{"p0"})
	c := newStressClient(coordTS.URL, "")
	key, err := c.Register("alice", "")
	if err != nil {
		t.Fatal(err)
	}
	bare := crowd.NewServer()
	bareKey, err := func() (string, error) {
		ts := httptest.NewServer(bare)
		defer ts.Close()
		return crowd.NewClient(ts.URL, "").Register("alice", "")
	}()
	if err != nil {
		t.Fatal(err)
	}
	const tooBig = 1<<26 + 1
	for _, tier := range []struct {
		name string
		h    http.Handler
		key  string
	}{
		{"server", bare, bareKey},
		{"node", shards[0].leaderTS.Config.Handler, key},
		{"coordinator", coordTS.Config.Handler, key},
	} {
		for _, path := range []string{"/api/v1/func_eval/upload", "/api/v1/surrogate/upload"} {
			req := httptest.NewRequest(http.MethodPost, path, io.LimitReader(filler{}, tooBig))
			req.ContentLength = tooBig
			req.Header.Set("X-Api-Key", tier.key)
			rec := httptest.NewRecorder()
			tier.h.ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("%s: %s with a %d-byte body = %d, want 413: %s", tier.name, path, tooBig, rec.Code, rec.Body)
			}
		}
	}
}
