package worker

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"gptunecrowd"
	"gptunecrowd/internal/apps"
	"gptunecrowd/internal/core"
	"gptunecrowd/internal/crowd"
	"gptunecrowd/internal/taskpool"
)

// TestHostileCrowdEndToEnd is the trust-layer integration wall: a
// 20-task pool drained by four volunteer workers whose evaluators
// misbehave ~30% of the time (NaN results, errors, panics, hangs, and
// adversarially fabricated measurements). The run must finish with
//
//   - every task completed, no worker crash, no poisoned surrogate fit
//     (fit fallbacks stay zero: invalid samples never reach gp.Fit);
//   - every adversarial measurement quarantined by the server's demo
//     policy, and only those (counts match the injection schedule);
//   - per-uploader reputation reflecting each worker's accept and
//     quarantine history;
//   - worker fault counters (panics recovered, timeouts, imputations)
//     matching the injected faults, both on the workers and aggregated
//     into the task pool's counters;
//   - per-task best objectives that are real demo values, not
//     fabrications, within tolerance of an uninterrupted clean run.
//
// Run under -race in CI: the fault paths cross the worker's evaluation
// goroutine, the heartbeat loop, and the server's trust layer.
func TestHostileCrowdEndToEnd(t *testing.T) {
	const (
		nTasks  = 20
		budget  = 8
		nWorker = 4
	)
	const (
		nanRate         = 0.10
		errorRate       = 0.05
		panicRate       = 0.08
		hangRate        = 0.03
		adversarialRate = 0.07 // total fault mass: 0.33
		adversarialY    = 1e6
	)

	srv, ts, httpc := e2eServer(t, crowd.Config{
		MaxInFlight:     256,
		TaskLeaseTTL:    10 * time.Second,
		TaskMaxAttempts: 50,
	})
	demoInst, err := apps.Build("demo", apps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The demo objective lives in roughly [-2, 4]; anything outside
	// ±100 is implausible and must be quarantined, not stored.
	srv.RegisterProblemPolicy("demo", crowd.ProblemPolicy{
		Space:    demoInst.Problem.ParamSpace,
		OutputLo: -100,
		OutputHi: 100,
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

	// Clean baselines: what an unfaulted local run of each spec finds.
	cleanBest := make(map[int64]float64, nTasks)
	for i := 0; i < nTasks; i++ {
		seed := int64(i + 1)
		inst, err := apps.Build("demo", apps.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := gptunecrowd.NewTuningSession(inst.Problem, inst.DefaultTask, gptunecrowd.TuneOptions{Budget: budget, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		cleanBest[seed] = res.BestY
	}

	// Four hostile workers, each its own registered uploader so the
	// reputation ledger separates them. Every task gets a fresh injector
	// (the inner evaluator is task-specific); the per-worker lists sum
	// to the injection schedule afterwards.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	workers := make([]*Worker, nWorker)
	var injMu sync.Mutex
	injectors := make([][]*core.FaultyEvaluator, nWorker)
	for i := range workers {
		c := e2eClient(t, ts, httpc, "")
		if _, err := c.Register(fmt.Sprintf("hostile-%d", i), ""); err != nil {
			t.Fatal(err)
		}
		idx := i
		w, err := New(Options{
			Client:       c,
			Name:         fmt.Sprintf("hostile-%d", i),
			PollInterval: 5 * time.Millisecond,
			EvalTimeout:  100 * time.Millisecond,
			WrapEvaluator: func(inner core.Evaluator) core.Evaluator {
				fe := &core.FaultyEvaluator{
					Inner:            inner,
					Seed:             42,
					NaNRate:          nanRate,
					ErrorRate:        errorRate,
					PanicRate:        panicRate,
					HangRate:         hangRate,
					AdversarialRate:  adversarialRate,
					AdversarialValue: adversarialY,
					HangFor:          500 * time.Millisecond,
				}
				injMu.Lock()
				injectors[idx] = append(injectors[idx], fe)
				injMu.Unlock()
				return fe
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
		wg.Add(1)
		go func() { defer wg.Done(); w.Run(ctx) }()
	}

	deadline := time.Now().Add(120 * time.Second)
	for {
		st := srv.TaskPool().Stats()
		if st.Completed == nTasks {
			break
		}
		if time.Now().After(deadline) {
			cancel()
			wg.Wait()
			t.Fatalf("hostile pool not drained: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	cancel()
	wg.Wait()

	st := srv.TaskPool().Stats()
	if st.Completed != nTasks || st.Completions != nTasks || st.Dead != 0 {
		t.Fatalf("pool state after hostile run: %+v", st)
	}

	// Tally the injected faults, per worker and overall.
	var injNaN, injErr, injPanic, injHang, injAdv int64
	advByWorker := make([]int64, nWorker)
	for i, list := range injectors {
		for _, fe := range list {
			injNaN += fe.NaNs.Load()
			injErr += fe.Errors.Load()
			injPanic += fe.Panics.Load()
			injHang += fe.Hangs.Load()
			adv := fe.Adversarial.Load()
			injAdv += adv
			advByWorker[i] += adv
		}
	}
	if injNaN+injErr+injPanic+injHang+injAdv == 0 {
		t.Fatal("fault injection never fired; the hostile run proved nothing")
	}

	// Worker fault counters match the schedule exactly.
	var ws Stats
	for _, w := range workers {
		s := w.Stats()
		ws.Evals += s.Evals
		ws.PanicsRecovered += s.PanicsRecovered
		ws.Timeouts += s.Timeouts
		ws.Imputed += s.Imputed
		ws.FitFallbacks += s.FitFallbacks
		if s.LeaseLost != 0 || s.Failed != 0 || s.Suspended != 0 {
			t.Fatalf("worker lost work during hostile run: %+v", s)
		}
	}
	if ws.Evals != nTasks*budget {
		t.Fatalf("ran %d evaluations, want %d", ws.Evals, nTasks*budget)
	}
	if ws.PanicsRecovered != injPanic {
		t.Fatalf("recovered %d panics, injected %d", ws.PanicsRecovered, injPanic)
	}
	if ws.Timeouts != injHang {
		t.Fatalf("timed out %d evaluations, injected %d hangs", ws.Timeouts, injHang)
	}
	if want := injNaN + injErr + injPanic + injHang; ws.Imputed != want {
		t.Fatalf("imputed %d evaluations, want %d (NaN %d + error %d + panic %d + hang %d)",
			ws.Imputed, want, injNaN, injErr, injPanic, injHang)
	}
	// No invalid sample reached a surrogate fit: a non-finite or
	// adversarial value leaking into gp.Fit would error and surface
	// here as a space-filling fallback.
	if ws.FitFallbacks != 0 {
		t.Fatalf("%d surrogate fits failed during the hostile run", ws.FitFallbacks)
	}
	// The pool aggregated the same counters from the task results.
	if st.WorkerFaults.PanicsRecovered != injPanic || st.WorkerFaults.Timeouts != injHang ||
		st.WorkerFaults.ImputedEvals != ws.Imputed || st.WorkerFaults.FitFallbacks != 0 {
		t.Fatalf("pool fault aggregation %+v does not match workers (panics %d, timeouts %d, imputed %d)",
			st.WorkerFaults, injPanic, injHang, ws.Imputed)
	}

	// Quarantine counts match the adversarial schedule: those samples —
	// and only those — were held back.
	m := srv.Metrics()
	if m.Quarantine.Total != injAdv || m.Quarantine.Held != injAdv || m.Quarantine.Released != 0 {
		t.Fatalf("quarantine %+v, want %d held", m.Quarantine, injAdv)
	}
	if got := m.Quarantine.ByReason[string(crowd.ReasonOutputOutOfRange)]; got != injAdv {
		t.Fatalf("quarantined %d as out-of-range, want %d (by reason: %v)", got, injAdv, m.Quarantine.ByReason)
	}
	if m.SamplesQuarantined != injAdv {
		t.Fatalf("counted %d quarantined samples, want %d", m.SamplesQuarantined, injAdv)
	}
	if m.SamplesAccepted != int64(nTasks*budget)-injAdv {
		t.Fatalf("accepted %d samples, want %d", m.SamplesAccepted, int64(nTasks*budget)-injAdv)
	}
	evals, err := owner.Query(crowd.QueryRequest{TuningProblemName: "demo"})
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != nTasks*budget-int(injAdv) {
		t.Fatalf("database holds %d samples, want %d", len(evals), nTasks*budget-int(injAdv))
	}
	for _, fe := range evals {
		if !fe.Failed && (math.IsNaN(fe.Output) || math.IsInf(fe.Output, 0) || fe.Output > 100 || fe.Output < -100) {
			t.Fatalf("invalid sample reached the database: %+v", fe)
		}
	}

	// Reputation separates the uploaders: every worker's ledger shows
	// exactly its own accepted and quarantined samples.
	for i, w := range workers {
		rep, ok := m.Reputation[fmt.Sprintf("hostile-%d", i)]
		if !ok {
			t.Fatalf("no reputation for hostile-%d (have %v)", i, m.Reputation)
		}
		if rep.Quarantined != advByWorker[i] {
			t.Fatalf("hostile-%d reputation quarantined %d, injected %d", i, rep.Quarantined, advByWorker[i])
		}
		if want := w.Stats().Evals - advByWorker[i]; rep.Accepted != want {
			t.Fatalf("hostile-%d reputation accepted %d, want %d", i, rep.Accepted, want)
		}
		if rep.Score <= 0 || rep.Score >= 1 {
			t.Fatalf("hostile-%d reputation score %v out of (0,1)", i, rep.Score)
		}
	}

	// The tuner still tuned: every task's best is a real demo value
	// (never the fabricated 1e6) within tolerance of a clean run.
	for i := 0; i < nTasks; i++ {
		seed := int64(i + 1)
		var task *taskpool.Task
		for _, id := range srv.TaskPool().List(taskpool.StateCompleted) {
			if id.Spec.Seed == seed {
				task = id
				break
			}
		}
		if task == nil || task.Result == nil {
			t.Fatalf("no completed task for seed %d", seed)
		}
		best := task.Result.BestY
		if math.IsNaN(best) || math.IsInf(best, 0) || best >= adversarialY {
			t.Fatalf("seed %d: fabricated or invalid best %v", seed, best)
		}
		if best > cleanBest[seed]+1.5 {
			t.Fatalf("seed %d: hostile best %v too far above clean best %v", seed, best, cleanBest[seed])
		}
	}
}
