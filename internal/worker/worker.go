// Package worker implements the crowd volunteer daemon's core loop:
// lease a tuning task from the shared server, run it against the
// built-in application simulators, keep the lease alive with
// heartbeats, upload the measured samples, and report the result —
// checkpointing and handing the task back if asked to drain mid-run.
package worker

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync/atomic"
	"time"

	"gptunecrowd"
	"gptunecrowd/internal/apps"
	"gptunecrowd/internal/core"
	"gptunecrowd/internal/crowd"
	"gptunecrowd/internal/obs"
	"gptunecrowd/internal/taskpool"
)

// Options configures a Worker.
type Options struct {
	// Client is the authenticated crowd client (required).
	Client *crowd.Client
	// Name identifies the worker in lease records; defaults to "worker".
	Name string
	// Machine are the worker's machine tags, matched against each
	// task's machine constraint.
	Machine taskpool.MachineConstraint
	// PollInterval is the sleep between lease attempts when the pool is
	// empty or the server unreachable. Default 2s.
	PollInterval time.Duration
	// Slog receives progress records, the per-task ones stamped with
	// the task's trace ID; nil disables logging.
	Slog *slog.Logger
	// Registry, when non-nil, exposes the worker's cumulative counters
	// as worker_* metric families (served on the daemon's -debug-addr).
	Registry *obs.Registry
	// Accessibility marks uploaded samples ("" = public).
	Accessibility string
	// OnSample observes every evaluation the worker records (tests).
	OnSample func(taskID string, iter int, y float64)
	// EvalTimeout bounds one function evaluation. An evaluation
	// exceeding it is recorded as a failed sample and the worker moves
	// on, keeping its lease alive. 0 disables the deadline (a hung
	// application then blocks the task until the lease expires).
	EvalTimeout time.Duration
	// WrapEvaluator, when set, wraps each task's application evaluator
	// before the session runs (fault injection in tests).
	WrapEvaluator func(core.Evaluator) core.Evaluator
}

// Stats are a worker's cumulative counters.
type Stats struct {
	Completed int64 // tasks finished with Complete
	Suspended int64 // tasks handed back with a checkpoint (drain)
	Failed    int64 // tasks handed back after an error
	LeaseLost int64 // tasks abandoned because the lease expired
	Evals     int64 // function evaluations run

	PanicsRecovered int64 // evaluations that panicked, recorded as failures
	Timeouts        int64 // evaluations abandoned at EvalTimeout
	Imputed         int64 // failed evaluations recorded for imputation
	FitFallbacks    int64 // iterations degraded to space-filling sampling
}

// Worker runs the lease → tune → upload → complete loop.
type Worker struct {
	opts Options
	slog *slog.Logger

	completed atomic.Int64
	suspended atomic.Int64
	failed    atomic.Int64
	leaseLost atomic.Int64
	evals     atomic.Int64

	panics       atomic.Int64
	timeouts     atomic.Int64
	imputed      atomic.Int64
	fitFallbacks atomic.Int64
}

// New validates the options and returns a Worker.
func New(opts Options) (*Worker, error) {
	if opts.Client == nil {
		return nil, errors.New("worker: options need a crowd client")
	}
	if opts.Name == "" {
		opts.Name = "worker"
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 2 * time.Second
	}
	w := &Worker{opts: opts, slog: obs.Or(opts.Slog).With("worker", opts.Name)}
	if opts.Registry != nil {
		w.registerMetrics(opts.Registry)
	}
	return w, nil
}

// registerMetrics publishes the worker's atomic counters as worker_*
// families, sampled at exposition time.
func (w *Worker) registerMetrics(reg *obs.Registry) {
	counter := func(name, help string, v *atomic.Int64) {
		reg.CounterFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	counter("worker_tasks_completed_total", "Tasks finished with Complete.", &w.completed)
	counter("worker_tasks_suspended_total", "Tasks handed back with a checkpoint (drain).", &w.suspended)
	counter("worker_tasks_failed_total", "Tasks handed back after an error.", &w.failed)
	counter("worker_leases_lost_total", "Tasks abandoned because the lease expired.", &w.leaseLost)
	counter("worker_evaluations_total", "Function evaluations run.", &w.evals)
	counter("worker_eval_panics_total", "Evaluations that panicked, recorded as failures.", &w.panics)
	counter("worker_eval_timeouts_total", "Evaluations abandoned at EvalTimeout.", &w.timeouts)
	counter("worker_evals_imputed_total", "Failed evaluations recorded for imputation.", &w.imputed)
	counter("worker_fit_fallbacks_total", "Iterations degraded to space-filling sampling.", &w.fitFallbacks)
}

// Stats returns the worker's counters.
func (w *Worker) Stats() Stats {
	return Stats{
		Completed:       w.completed.Load(),
		Suspended:       w.suspended.Load(),
		Failed:          w.failed.Load(),
		LeaseLost:       w.leaseLost.Load(),
		Evals:           w.evals.Load(),
		PanicsRecovered: w.panics.Load(),
		Timeouts:        w.timeouts.Load(),
		Imputed:         w.imputed.Load(),
		FitFallbacks:    w.fitFallbacks.Load(),
	}
}

func (w *Worker) logf(format string, args ...interface{}) {
	w.slog.Info(fmt.Sprintf(format, args...))
}

// Run leases and executes tasks until ctx is cancelled. Cancellation
// is a graceful drain: a task in flight stops after its current
// evaluation, checkpoints, and is handed back to the pool so another
// worker can resume it. Run returns nil on drain.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if ctx.Err() != nil {
			return nil
		}
		task, ttl, err := w.opts.Client.LeaseTaskContext(ctx, w.opts.Name, w.opts.Machine)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			w.logf("lease failed: %v", err)
			if serr := sleep(ctx, w.opts.PollInterval); serr != nil {
				return nil
			}
			continue
		}
		if task == nil {
			if serr := sleep(ctx, w.opts.PollInterval); serr != nil {
				return nil
			}
			continue
		}
		w.runTask(ctx, task, ttl)
	}
}

// DrainOne leases and runs at most one task, returning whether a task
// was leased. Tests use it to drive the loop deterministically.
func (w *Worker) DrainOne(ctx context.Context) (bool, error) {
	task, ttl, err := w.opts.Client.LeaseTaskContext(ctx, w.opts.Name, w.opts.Machine)
	if err != nil || task == nil {
		return false, err
	}
	w.runTask(ctx, task, ttl)
	return true, nil
}

func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// runTask executes one leased task to completion, drain, or failure.
func (w *Worker) runTask(ctx context.Context, task *taskpool.Task, ttl time.Duration) {
	// leaseCtx dies when the heartbeat loop learns the lease is lost;
	// the step loop checks it between evaluations. It adopts the trace
	// the submitter stamped on the spec, so every heartbeat, upload and
	// completion joins the submitting request's trace.
	leaseCtx, cancelLease := context.WithCancel(
		obs.WithTrace(context.Background(), task.Spec.TraceID))
	defer cancelLease()
	w.slog.InfoContext(leaseCtx, "leased task",
		"task", task.ID, "app", task.Spec.App, "budget", task.Spec.Budget,
		"attempt", task.Attempts, "max_attempts", task.MaxAttempts)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeatLoop(leaseCtx, task, ttl, cancelLease)
	}()
	defer func() { cancelLease(); <-hbDone }()

	if task.Spec.Kind == taskpool.KindEval {
		w.runEvalTask(ctx, leaseCtx, task)
		return
	}

	sess, taskParams, eval, err := w.openSession(task)
	if err != nil {
		w.failTask(task, fmt.Sprintf("setup: %v", err), nil)
		w.failed.Add(1)
		return
	}
	startIter := sess.Iter()

	// Per-task fault counters: reported in the task Result on Complete
	// and folded into the worker's cumulative stats on every exit path.
	var faults taskpool.FaultStats
	defer func() {
		faults.FitFallbacks = sess.Stats().SpaceFill
		w.panics.Add(faults.PanicsRecovered)
		w.timeouts.Add(faults.Timeouts)
		w.imputed.Add(faults.ImputedEvals)
		w.fitFallbacks.Add(faults.FitFallbacks)
	}()

	for !sess.Done() {
		if leaseCtx.Err() != nil {
			w.leaseLost.Add(1)
			w.logf("lease on %s lost, abandoning", task.ID)
			return
		}
		if ctx.Err() != nil {
			w.suspend(leaseCtx, task, taskParams, sess, startIter)
			return
		}
		params, err := sess.Propose()
		if err != nil {
			cp, _ := sess.Checkpoint()
			w.failTask(task, fmt.Sprintf("propose %d: %v", sess.Iter(), err), cp)
			w.failed.Add(1)
			return
		}
		y, evalErr := w.evaluate(task.ID, eval, taskParams, params, &faults)
		if evalErr != nil || math.IsNaN(y) || math.IsInf(y, 0) {
			// The session records these as failed samples; the tuner
			// penalty-imputes them before each surrogate fit.
			faults.ImputedEvals++
		}
		if err := sess.Observe(y, evalErr); err != nil {
			cp, _ := sess.Checkpoint()
			w.failTask(task, fmt.Sprintf("evaluation %d: %v", sess.Iter(), err), cp)
			w.failed.Add(1)
			return
		}
		w.evals.Add(1)
		if w.opts.OnSample != nil {
			i := sess.Iter() - 1
			w.opts.OnSample(task.ID, i, sess.History().Samples[i].Y)
		}
	}

	ids, err := w.uploadSamples(leaseCtx, task, taskParams, sess, startIter)
	if err != nil {
		// The samples are reproducible from the checkpoint; hand the
		// task back rather than completing with lost data.
		cp, _ := sess.Checkpoint()
		w.failTask(task, fmt.Sprintf("upload: %v", err), cp)
		w.failed.Add(1)
		return
	}
	res, err := sess.Run() // already done: reports best
	if err != nil {
		cp, _ := sess.Checkpoint()
		w.failTask(task, fmt.Sprintf("no successful evaluation: %v", err), cp)
		w.failed.Add(1)
		return
	}
	cp, _ := sess.Checkpoint()
	faults.FitFallbacks = sess.Stats().SpaceFill
	err = w.opts.Client.CompleteTaskContext(leaseCtx, task.ID, task.LeaseToken, taskpool.Result{
		BestParams:  res.BestParams,
		BestY:       res.BestY,
		NumEvals:    sess.Iter(),
		FuncEvalIDs: ids,
		Checkpoint:  cp,
		Faults:      faults,
	})
	if err != nil {
		w.logf("complete %s failed: %v", task.ID, err)
		w.failed.Add(1)
		return
	}
	w.completed.Add(1)
	w.slog.InfoContext(leaseCtx, "completed task",
		"task", task.ID, "best_y", res.BestY, "evals", sess.Iter())
}

// runEvalTask executes a single-point evaluation task: decode the
// pinned configuration, run it once, upload the measurement and report
// the observation in the task result so a batch coordinator can feed
// it back into its session. Eval tasks carry no checkpoint — a drain
// hands the untouched task back for another worker to run whole.
func (w *Worker) runEvalTask(ctx, leaseCtx context.Context, task *taskpool.Task) {
	spec := task.Spec
	if ctx.Err() != nil {
		// Draining before the evaluation started: hand the task back
		// untouched instead of burning a measurement we cannot report.
		w.failTask(task, "worker draining", nil)
		w.suspended.Add(1)
		return
	}
	inst, err := apps.Build(spec.App, apps.Options{Seed: spec.Seed})
	if err != nil {
		w.failTask(task, fmt.Sprintf("setup: %v", err), nil)
		w.failed.Add(1)
		return
	}
	eval := inst.Problem.Evaluator
	if w.opts.WrapEvaluator != nil {
		eval = w.opts.WrapEvaluator(eval)
	}
	taskParams := spec.TaskParams
	if taskParams == nil {
		taskParams = inst.DefaultTask
	}
	if got, want := len(spec.ParamU), inst.Problem.ParamSpace.Dim(); got != want {
		w.failTask(task, fmt.Sprintf("eval point has %d dims, app %q has %d", got, spec.App, want), nil)
		w.failed.Add(1)
		return
	}
	u := inst.Problem.ParamSpace.Canonicalize(spec.ParamU)
	params := inst.Problem.ParamSpace.Decode(u)

	var faults taskpool.FaultStats
	y, evalErr := w.evaluate(task.ID, eval, taskParams, params, &faults)
	w.evals.Add(1)
	w.panics.Add(faults.PanicsRecovered)
	w.timeouts.Add(faults.Timeouts)
	failed := evalErr != nil || math.IsNaN(y) || math.IsInf(y, 0)
	if failed {
		faults.ImputedEvals++
		w.imputed.Add(1)
	}
	if leaseCtx.Err() != nil {
		w.leaseLost.Add(1)
		w.logf("lease on %s lost, abandoning", task.ID)
		return
	}

	obsv := &taskpool.Observation{ProposalID: spec.ProposalID, ParamU: u, Y: y, Failed: failed}
	if evalErr != nil {
		obsv.Err = evalErr.Error()
	}
	// Upload best-effort: the observation rides on the task result
	// either way, so a lost upload costs shared history, not progress.
	if err := w.uploadEval(leaseCtx, task, taskParams, params, y, failed); err != nil {
		w.logf("upload of eval %s: %v", task.ID, err)
	}
	if w.opts.OnSample != nil {
		w.opts.OnSample(task.ID, 0, y)
	}
	res := taskpool.Result{NumEvals: 1, Observation: obsv, Faults: faults}
	if !failed {
		res.BestParams = params
		res.BestY = y
	}
	if err := w.opts.Client.CompleteTaskContext(leaseCtx, task.ID, task.LeaseToken, res); err != nil {
		w.logf("complete %s failed: %v", task.ID, err)
		w.failed.Add(1)
		return
	}
	w.completed.Add(1)
	w.slog.InfoContext(leaseCtx, "completed eval task",
		"task", task.ID, "proposal_id", spec.ProposalID, "y", y, "failed", failed)
}

// uploadEval pushes a single eval-task measurement to the shared
// database.
func (w *Worker) uploadEval(ctx context.Context, task *taskpool.Task, taskParams, params map[string]interface{}, y float64, failed bool) error {
	problem := task.Spec.TuningProblemName
	if problem == "" {
		problem = task.Spec.App
	}
	_, err := w.opts.Client.UploadContext(ctx, []crowd.FuncEval{{
		TuningProblemName: problem,
		TaskParams:        taskParams,
		TuningParams:      params,
		Output:            y,
		Failed:            failed,
		Machine: crowd.MachineConfiguration{
			MachineName: w.opts.Machine.MachineName,
			Partition:   w.opts.Machine.Partition,
		},
		Accessibility: w.opts.Accessibility,
	}})
	return err
}

// openSession builds the task's application problem and a fresh or
// resumed tuning session. The returned evaluator is the problem's,
// optionally wrapped by Options.WrapEvaluator; the worker drives it
// itself (Propose → evaluate → Observe) so faults stay containable.
func (w *Worker) openSession(task *taskpool.Task) (*gptunecrowd.TuningSession, map[string]interface{}, core.Evaluator, error) {
	inst, err := apps.Build(task.Spec.App, apps.Options{Seed: task.Spec.Seed})
	if err != nil {
		return nil, nil, nil, err
	}
	eval := inst.Problem.Evaluator
	if w.opts.WrapEvaluator != nil {
		eval = w.opts.WrapEvaluator(eval)
		inst.Problem.Evaluator = eval
	}
	taskParams := task.Spec.TaskParams
	if taskParams == nil {
		taskParams = inst.DefaultTask
	}
	opts := gptunecrowd.TuneOptions{
		Budget:    task.Spec.Budget,
		Seed:      task.Spec.Seed,
		Algorithm: task.Spec.Algorithm,
	}
	if len(task.Spec.Checkpoint) > 0 {
		s, err := gptunecrowd.ResumeTuningSession(inst.Problem, taskParams, opts, task.Spec.Checkpoint)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("resume checkpoint: %w", err)
		}
		w.logf("resuming %s from checkpoint at evaluation %d", task.ID, s.Iter())
		return s, taskParams, eval, nil
	}
	s, err := gptunecrowd.NewTuningSession(inst.Problem, taskParams, opts)
	return s, taskParams, eval, err
}

// evaluate runs one function evaluation with panic recovery and the
// optional EvalTimeout deadline, so a hostile or buggy application can
// neither crash the worker nor hang its lease. Panics and timeouts come
// back as ordinary evaluation errors, recorded as failed samples.
func (w *Worker) evaluate(taskID string, eval core.Evaluator, taskParams, params map[string]interface{}, faults *taskpool.FaultStats) (float64, error) {
	type evalResult struct {
		y        float64
		err      error
		panicked bool
	}
	// Buffered: a timed-out evaluation that finishes (or panics) later
	// must not leak its goroutine on the send.
	ch := make(chan evalResult, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- evalResult{err: fmt.Errorf("panic during evaluation: %v", r), panicked: true}
			}
		}()
		y, err := eval.Evaluate(taskParams, params)
		ch <- evalResult{y: y, err: err}
	}()
	var deadline <-chan time.Time
	if w.opts.EvalTimeout > 0 {
		t := time.NewTimer(w.opts.EvalTimeout)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case r := <-ch:
		if r.panicked {
			faults.PanicsRecovered++
			w.logf("recovered evaluation panic on %s: %v", taskID, r.err)
		}
		return r.y, r.err
	case <-deadline:
		faults.Timeouts++
		w.logf("evaluation on %s timed out after %v", taskID, w.opts.EvalTimeout)
		return 0, fmt.Errorf("evaluation timed out after %v", w.opts.EvalTimeout)
	}
}

// heartbeatLoop renews the lease at a third of its TTL until ctx dies.
// A lost lease (409) cancels via cancelLease so the step loop stops.
func (w *Worker) heartbeatLoop(ctx context.Context, task *taskpool.Task, ttl time.Duration, cancelLease context.CancelFunc) {
	interval := ttl / 3
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_, err := w.opts.Client.HeartbeatTaskContext(ctx, task.ID, task.LeaseToken)
			var apiErr *crowd.APIError
			if errors.As(err, &apiErr) && !apiErr.Temporary() {
				cancelLease()
				return
			}
			if err != nil {
				w.logf("heartbeat %s: %v", task.ID, err)
			}
		}
	}
}

// suspend checkpoints the session and hands the task back (drain). The
// evaluations this lease already ran are uploaded best-effort first, so
// a drained worker's measurements are not lost; the resumed session
// uploads only from its own start iteration, so nothing is duplicated.
func (w *Worker) suspend(ctx context.Context, task *taskpool.Task, taskParams map[string]interface{}, sess *gptunecrowd.TuningSession, startIter int) {
	cp, err := sess.Checkpoint()
	if err != nil {
		w.failTask(task, fmt.Sprintf("checkpoint: %v", err), nil)
		w.failed.Add(1)
		return
	}
	if _, err := w.uploadSamples(ctx, task, taskParams, sess, startIter); err != nil {
		w.logf("upload on suspend of %s: %v", task.ID, err)
	}
	w.failTask(task, "worker draining", cp)
	w.suspended.Add(1)
	w.logf("suspended %s at evaluation %d/%d", task.ID, sess.Iter(), sess.Budget())
}

// failTask reports a failure with its own deadline: the parent context
// is typically already cancelled when draining.
func (w *Worker) failTask(task *taskpool.Task, reason string, checkpoint []byte) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := w.opts.Client.FailTaskContext(ctx, task.ID, task.LeaseToken, reason, checkpoint); err != nil {
		w.logf("fail %s: %v", task.ID, err)
	}
}

// uploadSamples pushes the evaluations this lease ran (history indices
// from startIter on) to the shared database and returns their ids.
func (w *Worker) uploadSamples(ctx context.Context, task *taskpool.Task, taskParams map[string]interface{}, sess *gptunecrowd.TuningSession, startIter int) ([]string, error) {
	problem := task.Spec.TuningProblemName
	if problem == "" {
		problem = task.Spec.App
	}
	samples := sess.History().Samples
	var evals []crowd.FuncEval
	for i := startIter; i < len(samples); i++ {
		s := samples[i]
		evals = append(evals, crowd.FuncEval{
			TuningProblemName: problem,
			TaskParams:        taskParams,
			TuningParams:      s.Params,
			Output:            s.Y,
			Failed:            s.Failed,
			Machine: crowd.MachineConfiguration{
				MachineName: w.opts.Machine.MachineName,
				Partition:   w.opts.Machine.Partition,
			},
			Accessibility: w.opts.Accessibility,
		})
	}
	if len(evals) == 0 {
		return nil, nil
	}
	return w.opts.Client.UploadContext(ctx, evals)
}
