package worker

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"gptunecrowd"
	"gptunecrowd/internal/apps"
	"gptunecrowd/internal/crowd"
	"gptunecrowd/internal/taskpool"
)

func e2eServer(t *testing.T, cfg crowd.Config) (*crowd.Server, *httptest.Server, *http.Client) {
	t.Helper()
	srv := crowd.NewServerWith(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	httpc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	t.Cleanup(httpc.CloseIdleConnections)
	return srv, ts, httpc
}

func e2eClient(t *testing.T, ts *httptest.Server, httpc *http.Client, key string) *crowd.Client {
	t.Helper()
	c := crowd.NewClient(ts.URL, key)
	c.HTTP = httpc
	c.BackoffBase = time.Millisecond
	c.BackoffMax = 10 * time.Millisecond
	return c
}

// checkpointSamples mirrors the session checkpoint's sample encoding,
// enough to compare resumed histories bit-for-bit.
type checkpointSamples struct {
	Iter    int `json:"iter"`
	Samples []struct {
		U []float64 `json:"u"`
		Y float64   `json:"y"`
	} `json:"samples"`
}

// TestEndToEndCrowdTuning is the integration wall from the issue: a
// crowd server with a 20-task pool, four worker daemons, one worker
// killed mid-lease (its lease must expire and requeue), and one worker
// drained mid-task (its checkpoint must resume bit-identically on
// another worker). Every task must complete exactly once.
func TestEndToEndCrowdTuning(t *testing.T) {
	const (
		nTasks  = 20
		budget  = 4
		nWorker = 4
	)
	srv, ts, httpc := e2eServer(t, crowd.Config{
		MaxInFlight:     256,
		TaskLeaseTTL:    400 * time.Millisecond,
		TaskMaxAttempts: 50,
	})
	owner := e2eClient(t, ts, httpc, "")
	if _, err := owner.Register("owner", ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nTasks; i++ {
		if _, err := owner.SubmitTaskContext(context.Background(), taskpool.Spec{App: "demo", Budget: budget, Seed: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}

	// A worker is "killed" mid-lease: it leases a task and disappears —
	// no heartbeat, no complete. The TTL reaper must hand its task to
	// the survivors.
	killed, _, err := e2eClient(t, ts, httpc, owner.APIKey).LeaseTaskContext(context.Background(), "killed-worker", taskpool.MachineConstraint{})
	if err != nil || killed == nil {
		t.Fatalf("killed worker lease: %v %v", killed, err)
	}

	// Worker 0 starts first and is drained after its second evaluation:
	// it must checkpoint and hand the task back.
	drainCtx, drainCancel := context.WithCancel(context.Background())
	defer drainCancel()
	var (
		suspendMu   sync.Mutex
		suspendedID string
	)
	w0Client := e2eClient(t, ts, httpc, owner.APIKey)
	w0, err := New(Options{
		Client:       w0Client,
		Name:         "drainy",
		PollInterval: 10 * time.Millisecond,
		OnSample: func(taskID string, iter int, y float64) {
			suspendMu.Lock()
			defer suspendMu.Unlock()
			if suspendedID == "" && iter == 1 {
				suspendedID = taskID
				drainCancel() // SIGTERM equivalent: drain after this evaluation
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	w0done := make(chan struct{})
	go func() { defer close(w0done); w0.Run(drainCtx) }()
	select {
	case <-w0done:
	case <-time.After(20 * time.Second):
		t.Fatal("drained worker did not exit")
	}
	suspendMu.Lock()
	susID := suspendedID
	suspendMu.Unlock()
	if susID == "" {
		t.Fatal("worker 0 never reached its second evaluation")
	}
	if st := w0.Stats(); st.Suspended != 1 {
		t.Fatalf("worker 0 stats: %+v", st)
	}
	susTask, ok := srv.TaskPool().Get(susID)
	if !ok || susTask.State != taskpool.StateQueued || len(susTask.Spec.Checkpoint) == 0 {
		t.Fatalf("suspended task not requeued with checkpoint: %+v", susTask)
	}

	// The surviving fleet drains the pool (including the killed worker's
	// task, once its TTL lapses, and the drained task's checkpoint).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	workers := make([]*Worker, nWorker)
	for i := range workers {
		w, err := New(Options{
			Client:       e2eClient(t, ts, httpc, owner.APIKey),
			Name:         fmt.Sprintf("worker-%d", i),
			PollInterval: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
		wg.Add(1)
		go func() { defer wg.Done(); w.Run(ctx) }()
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := srv.TaskPool().Stats()
		if st.Completed == nTasks {
			break
		}
		if time.Now().After(deadline) {
			cancel()
			wg.Wait()
			t.Fatalf("pool not drained: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	cancel()
	wg.Wait()

	// Every task completed exactly once; the killed worker's lease was
	// requeued; nothing dead-lettered.
	st := srv.TaskPool().Stats()
	if st.Completed != nTasks || st.Completions != nTasks {
		t.Fatalf("exactly-once violated: %+v", st)
	}
	if st.ExpiredRequeues < 1 {
		t.Fatalf("killed worker's lease never expired: %+v", st)
	}
	if st.Dead != 0 || st.Queued != 0 || st.Leased != 0 {
		t.Fatalf("leftover tasks: %+v", st)
	}
	killedAfter, _ := srv.TaskPool().Get(killed.ID)
	if killedAfter.State != taskpool.StateCompleted || killedAfter.Attempts < 2 {
		t.Fatalf("killed worker's task: state=%s attempts=%d", killedAfter.State, killedAfter.Attempts)
	}

	// Bit-identical resume: the drained task's final history must equal
	// an uninterrupted local run of the same spec, sample for sample.
	final, _ := srv.TaskPool().Get(susID)
	if final.State != taskpool.StateCompleted {
		t.Fatalf("suspended task: %+v", final)
	}
	var resumed checkpointSamples
	if err := json.Unmarshal(final.Result.Checkpoint, &resumed); err != nil {
		t.Fatalf("decode final checkpoint: %v", err)
	}
	inst, err := apps.Build("demo", apps.Options{Seed: final.Spec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := gptunecrowd.NewTuningSession(inst.Problem, inst.DefaultTask, gptunecrowd.TuneOptions{
		Budget: final.Spec.Budget, Seed: final.Spec.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Samples) != res.History.Len() {
		t.Fatalf("resumed history has %d samples, uninterrupted %d", len(resumed.Samples), res.History.Len())
	}
	for i, s := range resumed.Samples {
		want := res.History.Samples[i]
		if s.Y != want.Y {
			t.Fatalf("sample %d: resumed y=%v, uninterrupted y=%v", i, s.Y, want.Y)
		}
		for j := range s.U {
			if s.U[j] != want.ParamU[j] {
				t.Fatalf("sample %d dim %d: resumed %v, uninterrupted %v", i, j, s.U[j], want.ParamU[j])
			}
		}
	}
	if final.Result.BestY != res.BestY {
		t.Fatalf("best drifted: %v vs %v", final.Result.BestY, res.BestY)
	}

	// The workers' measurements landed in the shared database: the
	// drained worker uploaded its partial history before suspending, the
	// resuming worker only its continuation, so the total is exact.
	evals, err := owner.Query(crowd.QueryRequest{TuningProblemName: "demo"})
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != nTasks*budget {
		t.Fatalf("uploaded %d func evals, want %d", len(evals), nTasks*budget)
	}
}

func TestWorkerReportsTaskFailure(t *testing.T) {
	// A spec naming an unknown app must be failed (and eventually
	// dead-lettered), not spin forever.
	srv, ts, httpc := e2eServer(t, crowd.Config{TaskMaxAttempts: 2})
	c := e2eClient(t, ts, httpc, "")
	if _, err := c.Register("owner", ""); err != nil {
		t.Fatal(err)
	}
	id, err := c.SubmitTaskContext(context.Background(), taskpool.Spec{App: "no-such-app", Budget: 2})
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(Options{Client: c, Name: "w", PollInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		leased, err := w.DrainOne(ctx)
		if err != nil || !leased {
			t.Fatalf("drain %d: leased=%v err=%v", i, leased, err)
		}
	}
	task, _ := srv.TaskPool().Get(id)
	if task.State != taskpool.StateDead {
		t.Fatalf("unrunnable task state: %+v", task)
	}
	if task.LastError == "" {
		t.Fatal("no failure reason recorded")
	}
	if st := w.Stats(); st.Failed != 2 {
		t.Fatalf("worker stats: %+v", st)
	}
}

func TestWorkerHonorsMachineConstraint(t *testing.T) {
	srv, ts, httpc := e2eServer(t, crowd.Config{})
	c := e2eClient(t, ts, httpc, "")
	if _, err := c.Register("owner", ""); err != nil {
		t.Fatal(err)
	}
	spec := taskpool.Spec{App: "demo", Budget: 2, Seed: 1,
		Machine: taskpool.MachineConstraint{MachineName: "cori", Partition: "knl"}}
	if _, err := c.SubmitTaskContext(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	mismatch, err := New(Options{Client: c, Name: "laptop",
		Machine: taskpool.MachineConstraint{MachineName: "laptop"}})
	if err != nil {
		t.Fatal(err)
	}
	if leased, err := mismatch.DrainOne(context.Background()); err != nil || leased {
		t.Fatalf("mismatched worker leased a constrained task: %v %v", leased, err)
	}
	match, err := New(Options{Client: c, Name: "cori-knl",
		Machine: taskpool.MachineConstraint{MachineName: "cori", Partition: "knl"}})
	if err != nil {
		t.Fatal(err)
	}
	if leased, err := match.DrainOne(context.Background()); err != nil || !leased {
		t.Fatalf("matching worker got nothing: %v %v", leased, err)
	}
	if st := srv.TaskPool().Stats(); st.Completed != 1 {
		t.Fatalf("constrained task not completed: %+v", st)
	}
}
