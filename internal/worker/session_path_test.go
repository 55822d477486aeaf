package worker

import (
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gptunecrowd"
	"gptunecrowd/internal/apps"
	"gptunecrowd/internal/crowd"
	"gptunecrowd/internal/replog"
	"gptunecrowd/internal/taskpool"
)

// TestWorkerUploadsTuneHistory: the worker's tune path is the session's
// loop, so the samples it uploads for a task are, value for value, the
// history gptunecrowd.Tune produces for the same problem, seed and
// budget.
func TestWorkerUploadsTuneHistory(t *testing.T) {
	const (
		seed   = 5
		budget = 12
	)
	srv, ts, httpc := e2eServer(t, crowd.Config{})
	c := e2eClient(t, ts, httpc, "")
	if _, err := c.Register("owner", ""); err != nil {
		t.Fatal(err)
	}
	id, err := c.SubmitTaskContext(context.Background(), taskpool.Spec{App: "demo", Budget: budget, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(Options{Client: c, Name: "w"})
	if err != nil {
		t.Fatal(err)
	}
	if leased, err := w.DrainOne(context.Background()); err != nil || !leased {
		t.Fatalf("drain: leased=%v err=%v", leased, err)
	}
	task, _ := srv.TaskPool().Get(id)
	if task.State != taskpool.StateCompleted {
		t.Fatalf("task not completed: %+v", task)
	}

	inst, err := apps.Build("demo", apps.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	want, err := gptunecrowd.Tune(inst.Problem, inst.DefaultTask, gptunecrowd.TuneOptions{Budget: budget, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Query(crowd.QueryRequest{TuningProblemName: "demo"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != want.History.Len() {
		t.Fatalf("worker uploaded %d samples, Tune recorded %d", len(got), want.History.Len())
	}
	for i, fe := range got {
		s := want.History.Samples[i]
		if fe.Output != s.Y || fe.Failed != s.Failed || !reflect.DeepEqual(fe.TuningParams, s.Params) {
			t.Fatalf("sample %d: worker uploaded %v → %v, Tune recorded %v → %v", i, fe.TuningParams, fe.Output, s.Params, s.Y)
		}
	}
	if task.Result.BestY != want.BestY {
		t.Fatalf("worker best %v, Tune best %v", task.Result.BestY, want.BestY)
	}
}

// TestWorkerRunsParentTaskLog opens a task log written by the commit
// before "eval"-kind tasks were removed: one pending eval task, one
// pending tune task. A current worker completes the tune task and fails
// the eval task at setup on every lease, without uploading a sample,
// until the pool dead-letters it. Submitting a new eval task is a 400.
func TestWorkerRunsParentTaskLog(t *testing.T) {
	srv, ts, httpc := e2eServer(t, crowd.Config{})
	dir := filepath.Join(t.TempDir(), "tasks")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "../taskpool/testdata/parent_pr26"
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pool := srv.TaskPool()
	if err := pool.Journal().Open(dir, replog.Options{}); err != nil {
		t.Fatalf("open the parent's task log: %v", err)
	}
	t.Cleanup(func() { pool.Journal().Log().Close() })
	evalTask, ok := pool.Get("t1")
	if !ok || evalTask.Spec.Kind != "eval" || evalTask.State != taskpool.StateQueued {
		t.Fatalf("parent eval task: %+v", evalTask)
	}
	tuneTask, ok := pool.Get("t2")
	if !ok || tuneTask.State != taskpool.StateQueued {
		t.Fatalf("parent tune task: %+v", tuneTask)
	}

	c := e2eClient(t, ts, httpc, "")
	if _, err := c.Register("bob", ""); err != nil {
		t.Fatal(err)
	}
	w, err := New(Options{Client: c, Name: "w", PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		leased, err := w.DrainOne(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !leased {
			break
		}
		if i > 2*evalTask.MaxAttempts {
			t.Fatal("the pool keeps handing out tasks")
		}
	}

	tuneTask, _ = pool.Get("t2")
	if tuneTask.State != taskpool.StateCompleted || tuneTask.Result.NumEvals != tuneTask.Spec.Budget {
		t.Fatalf("parent tune task after the run: %+v", tuneTask)
	}
	evalTask, _ = pool.Get("t1")
	if evalTask.State != taskpool.StateDead || evalTask.Attempts != evalTask.MaxAttempts ||
		!strings.HasPrefix(evalTask.LastError, "setup:") {
		t.Fatalf("parent eval task after the run: %+v", evalTask)
	}
	if st := w.Stats(); st.Completed != 1 || st.Failed != int64(evalTask.MaxAttempts) || st.Evals != int64(tuneTask.Spec.Budget) {
		t.Fatalf("worker stats: %+v", st)
	}
	evals, err := c.Query(crowd.QueryRequest{TuningProblemName: "demo"})
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != tuneTask.Spec.Budget {
		t.Fatalf("uploaded %d samples, want only the tune task's %d", len(evals), tuneTask.Spec.Budget)
	}

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/tasks/submit",
		strings.NewReader(`{"spec":{"app":"demo","kind":"eval","budget":1,"seed":7}}`))
	req.Header.Set("X-Api-Key", c.APIKey)
	resp, err := httpc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "kind") {
		t.Fatalf("submit of an eval task = %d %s, want 400 naming the kind", resp.StatusCode, body)
	}
}
