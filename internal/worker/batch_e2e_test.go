package worker

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"gptunecrowd"
	"gptunecrowd/internal/apps"
	"gptunecrowd/internal/crowd"
	"gptunecrowd/internal/taskpool"
)

// TestBatchCoordinatorEndToEnd is the asynchronous-batch integration
// wall from the issue: one coordinator fans a 12-evaluation budget out
// as eval tasks over a crowd of 8 workers, results land out of order,
// and one worker is killed mid-batch (its lease must expire and the
// task rerun elsewhere). The run must observe every proposal exactly
// once, find a best within tolerance of a sequential run, and its
// recorded schedule must replay bit-identically at 1, 4 and 8 numeric
// workers.
func TestBatchCoordinatorEndToEnd(t *testing.T) {
	const (
		budget    = 12
		batchSize = 4
		nWorker   = 8
	)
	srv, ts, httpc := e2eServer(t, crowd.Config{
		MaxInFlight:     256,
		TaskLeaseTTL:    300 * time.Millisecond,
		TaskMaxAttempts: 50,
	})
	owner := e2eClient(t, ts, httpc, "")
	if _, err := owner.Register("owner", ""); err != nil {
		t.Fatal(err)
	}

	tune := gptunecrowd.TuneOptions{Budget: budget, Seed: 11}
	coord, err := NewCoordinator(CoordinatorOptions{
		Client:       e2eClient(t, ts, httpc, owner.APIKey),
		App:          "demo",
		Tune:         tune,
		BatchSize:    batchSize,
		PollInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	type coordOut struct {
		res *gptunecrowd.Result
		err error
	}
	coordDone := make(chan coordOut, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		res, err := coord.Run(ctx)
		coordDone <- coordOut{res, err}
	}()

	// Kill a worker mid-batch: once the coordinator has queued tasks,
	// lease one and disappear — no heartbeat, no completion. The TTL
	// reaper must requeue it for the survivors.
	deadline := time.Now().Add(10 * time.Second)
	var killedTask *taskpool.Task
	for time.Now().Before(deadline) {
		killedTask, _, err = e2eClient(t, ts, httpc, owner.APIKey).
			LeaseTaskContext(context.Background(), "killed-worker", taskpool.MachineConstraint{})
		if err != nil {
			t.Fatalf("killed worker lease: %v", err)
		}
		if killedTask != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if killedTask == nil {
		t.Fatal("coordinator never queued a task to kill")
	}
	if killedTask.Spec.Kind != taskpool.KindEval {
		t.Fatalf("leased task has kind %q, want %q", killedTask.Spec.Kind, taskpool.KindEval)
	}

	workers := make([]*Worker, nWorker)
	for i := range workers {
		w, err := New(Options{
			Client:       e2eClient(t, ts, httpc, owner.APIKey),
			Name:         fmt.Sprintf("w%d", i),
			PollInterval: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
		go w.Run(ctx)
	}

	var out coordOut
	select {
	case out = <-coordDone:
	case <-time.After(120 * time.Second):
		t.Fatal("coordinator did not finish")
	}
	if out.err != nil {
		t.Fatalf("coordinator: %v", out.err)
	}
	cancel()

	sess := coord.Session()
	if sess.Iter() != budget || sess.InFlight() != 0 {
		t.Fatalf("iter %d in-flight %d, want %d and 0", sess.Iter(), sess.InFlight(), budget)
	}

	// Exactly-once, no duplicates: every issued proposal id appears in
	// exactly one observe event, and ids are never reissued.
	schedule := coord.Schedule()
	issued := map[uint64]int{}
	observed := map[uint64]int{}
	for _, ev := range schedule {
		switch ev.Kind {
		case "propose":
			for _, id := range ev.IDs {
				issued[id]++
			}
		case "observe":
			observed[ev.ProposalID]++
		}
	}
	if len(issued) != budget {
		t.Fatalf("%d distinct proposals issued, want %d", len(issued), budget)
	}
	for id, n := range issued {
		if n != 1 {
			t.Errorf("proposal %d issued %d times", id, n)
		}
		if observed[id] != 1 {
			t.Errorf("proposal %d observed %d times, want exactly once", id, observed[id])
		}
	}
	if len(observed) != budget {
		t.Fatalf("%d distinct proposals observed, want %d", len(observed), budget)
	}

	// Best within tolerance of a sequential run of the same problem and
	// budget. Batch proposals explore on a staler model than strictly
	// sequential ones, so allow slack — but a crowd must not be far off.
	inst, err := apps.Build("demo", apps.Options{Seed: tune.Seed})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := gptunecrowd.NewTuningSession(inst.Problem, inst.DefaultTask, tune)
	if err != nil {
		t.Fatal(err)
	}
	seqRes, err := seq.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.res.BestY > seqRes.BestY+0.25 {
		t.Errorf("batch best %.4f much worse than sequential best %.4f", out.res.BestY, seqRes.BestY)
	}

	// Bit-identical replay at every worker count: the recorded schedule
	// re-run against a fresh session must reproduce the checkpoint.
	want, err := sess.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"1", "4", "8"} {
		t.Run("replay-workers-"+workers, func(t *testing.T) {
			t.Setenv("GPTUNE_WORKERS", workers)
			replayed, err := ReplaySchedule("demo", nil, tune, schedule)
			if err != nil {
				t.Fatal(err)
			}
			got, err := replayed.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Errorf("replay at GPTUNE_WORKERS=%s diverged from the live run", workers)
			}
		})
	}

	// The killed worker's task was rerun, not lost, and no task died.
	if dead, err := owner.ListTasksContext(context.Background(), taskpool.StateDead); err != nil || len(dead) != 0 {
		t.Fatalf("dead tasks %v (err %v)", dead, err)
	}
	kt, ok := srv.TaskPool().Get(killedTask.ID)
	if !ok || kt.State != taskpool.StateCompleted {
		t.Fatalf("killed worker's task: %+v", kt)
	}
	if kt.Attempts < 2 {
		t.Errorf("killed task completed on attempt %d, want a re-lease", kt.Attempts)
	}
}
