package gptunecrowd

import (
	"context"
	"fmt"

	"gptunecrowd/internal/core"
	"gptunecrowd/internal/surrogate"
)

// sessionOptions lowers the public TuneOptions into the core session
// configuration, adapting the structured logger to the core layer's
// printf-style diagnostics hook.
func sessionOptions(opts TuneOptions) core.SessionOptions {
	so := core.SessionOptions{
		Budget:   opts.Budget,
		Seed:     opts.Seed,
		OnSample: opts.OnSample,
		Metrics:  opts.Metrics,
	}
	if opts.Logger != nil {
		lg := opts.Logger
		so.Logf = func(format string, args ...interface{}) {
			lg.Warn(fmt.Sprintf(format, args...))
		}
	}
	return so
}

// TuningSession is a suspendable tuning run. It exposes the same
// propose → evaluate → record loop as Tune, but decomposed into
// explicit steps whose complete state — history, iteration, RNG,
// outstanding proposal — serializes with Checkpoint and restores with
// ResumeTuningSession, continuing bit-identically to an uninterrupted
// run. That makes two things possible:
//
//   - stop/resume: a worker can be killed after any evaluation and a
//     different worker can pick the run up from the checkpoint;
//   - remote evaluation: call ProposeContext, ship the configuration to
//     wherever the application runs, and Observe the measurement when
//     it lands (the Problem's Evaluator may be nil in this mode).
type TuningSession struct {
	inner     *core.Session
	algorithm string
}

// NewTuningSession starts a checkpointable tuning run. Algorithm
// resolution matches Tune: empty means NoTLA without sources and
// Ensemble(proposed) with them.
func NewTuningSession(p *Problem, task map[string]interface{}, opts TuneOptions) (*TuningSession, error) {
	prop, err := resolveProposer(opts)
	if err != nil {
		return nil, err
	}
	s, err := core.NewSession(p, task, prop, sessionOptions(opts))
	if err != nil {
		return nil, err
	}
	return &TuningSession{inner: s, algorithm: prop.Name()}, nil
}

// ResumeTuningSession restores a session from a checkpoint taken with
// Checkpoint. The problem and options must describe the same run (the
// checkpoint records the problem and algorithm names and rejects
// mismatches); a larger opts.Budget extends the run.
func ResumeTuningSession(p *Problem, task map[string]interface{}, opts TuneOptions, checkpoint []byte) (*TuningSession, error) {
	prop, err := resolveProposer(opts)
	if err != nil {
		return nil, err
	}
	s, err := core.ResumeSession(p, task, prop, sessionOptions(opts), checkpoint)
	if err != nil {
		return nil, err
	}
	return &TuningSession{inner: s, algorithm: prop.Name()}, nil
}

// resolveProposer looks the tuner up in the one table of names:
// Algorithm and Surrogate are two spellings of the same key.
func resolveProposer(opts TuneOptions) (Proposer, error) {
	name := opts.Algorithm
	if opts.Surrogate != "" {
		if opts.Algorithm != "" {
			return nil, fmt.Errorf("gptunecrowd: Algorithm %q and Surrogate %q are mutually exclusive", opts.Algorithm, opts.Surrogate)
		}
		name = opts.Surrogate
	}
	return surrogate.NewProposer(name, surrogate.PoolConfig{
		Config: surrogate.Config{
			Sources:          opts.Sources,
			MaxSourceSamples: opts.MaxSourceSamples,
		},
		Metrics: opts.Metrics,
	})
}

// ProposeContext returns the next configuration to evaluate. It is
// idempotent while a proposal is outstanding: calling it again (e.g.
// after a resume) returns the same configuration without consuming
// randomness. The context threads into surrogate fitting and
// acquisition search, and a cancel surfaces as the wrapped context
// error without consuming budget or randomness — the session stays
// checkpointable and resumable.
func (s *TuningSession) ProposeContext(ctx context.Context) (map[string]interface{}, error) {
	return s.inner.ProposeContext(ctx)
}

// Observe records the measurement for the outstanding proposal. A
// non-nil evalErr records a failed evaluation, which consumes budget
// but is invisible to surrogate fits.
func (s *TuningSession) Observe(y float64, evalErr error) error { return s.inner.Observe(y, evalErr) }

// Batch observation errors, re-exported for drivers that feed a session
// from a crowd of workers. Match with errors.Is: the first two are
// harmless races (a retried task reporting a result the session already
// has), the third is a caller bug.
var (
	// ErrStaleObservation marks a result for a proposal already
	// committed to the history; the session is unchanged.
	ErrStaleObservation = core.ErrStaleObservation
	// ErrDuplicateObservation marks a second result for a still-pending
	// proposal; the first result stands.
	ErrDuplicateObservation = core.ErrDuplicateObservation
	// ErrUnknownProposal marks an id the session never issued.
	ErrUnknownProposal = core.ErrUnknownProposal
)

// Proposal is one outstanding batch proposal: the configuration to
// evaluate plus the id its measurement must be reported under with
// ObserveContext.
type Proposal struct {
	// ID is the session-unique, monotonically increasing proposal id.
	ID uint64
	// Params is the decoded parameter assignment to evaluate.
	Params map[string]interface{}
	// ParamU is the canonical (normalized) point.
	ParamU []float64
}

func publicProposals(in []core.PendingProposal) []Proposal {
	out := make([]Proposal, len(in))
	for i, p := range in {
		out[i] = Proposal{ID: p.ID, Params: p.Params, ParamU: p.ParamU}
	}
	return out
}

// ProposeBatchContext issues up to k new proposals on top of whatever
// is already in flight, so several workers can evaluate points of the
// same session concurrently. k is clamped to the remaining budget minus
// the in-flight count. Results are reported with ObserveContext in any
// order; the session commits them in proposal-id order, so history, RNG
// state and the next batch are bit-identical for every arrival order of
// the same result set. Cancellation between points returns the short
// batch (already in the ledger) together with the context's error.
func (s *TuningSession) ProposeBatchContext(ctx context.Context, k int) ([]Proposal, error) {
	props, err := s.inner.ProposeBatchContext(ctx, k)
	return publicProposals(props), err
}

// ObserveContext records the measurement for proposal id, wherever it
// sits in the batch. A non-nil evalErr records a failed evaluation. Out
// of order is fine; late duplicates surface as ErrStaleObservation or
// ErrDuplicateObservation and leave the session untouched.
func (s *TuningSession) ObserveContext(_ context.Context, id uint64, y float64, evalErr error) error {
	return s.inner.ObserveProposal(id, y, evalErr)
}

// PendingProposals returns the proposals still awaiting a result, in id
// order. After ResumeTuningSession this is the work to hand back out.
func (s *TuningSession) PendingProposals() []Proposal {
	return publicProposals(s.inner.PendingProposals())
}

// InFlight returns the number of proposals issued but not yet committed
// to the history.
func (s *TuningSession) InFlight() int { return s.inner.InFlight() }

// Step is StepContext with context.Background(). It stays only because
// bench/ calls it.
func (s *TuningSession) Step() error { return s.inner.StepContext(context.Background()) }

// StepContext proposes and evaluates one point with the problem's
// Evaluator. A cancel mid-evaluation abandons the measurement but keeps
// the proposal pending, so a resumed (or simply retried) session
// re-evaluates the same point rather than skipping it.
func (s *TuningSession) StepContext(ctx context.Context) error { return s.inner.StepContext(ctx) }

// RunContext steps until the budget is consumed, then reports the
// result like TuneContext. A partially run or resumed session simply
// continues. On cancellation it returns the wrapped context error
// together with a partial Result whose Checkpoint field resumes the run
// via ResumeTuningSession.
func (s *TuningSession) RunContext(ctx context.Context) (*Result, error) {
	return s.RunBatchContext(ctx, 1, 1)
}

// RunBatchContext is RunContext in rounds of batchSize proposals (spread
// by constant liars) evaluated on up to workers goroutines
// (0 means batchSize) — for an allocation that can run several trial
// configurations at once. Results commit in proposal order whichever
// evaluation finishes first, so a fixed seed gives one history at any
// worker count; batchSize 1 is exactly RunContext.
func (s *TuningSession) RunBatchContext(ctx context.Context, batchSize, workers int) (*Result, error) {
	h, err := s.inner.RunBatchContext(ctx, batchSize, workers)
	if err != nil && ctx.Err() == nil {
		return nil, err
	}
	res := &Result{History: h, Algorithm: s.algorithm}
	best, ok := h.Best()
	if ok {
		res.BestParams = best.Params
		res.BestY = best.Y
	}
	if err != nil {
		if cp, cperr := s.Checkpoint(); cperr == nil {
			res.Checkpoint = cp
		}
		return res, err
	}
	if !ok {
		return res, fmt.Errorf("gptunecrowd: no successful evaluation within the budget of %d", s.inner.Budget())
	}
	return res, nil
}

// Checkpoint serializes the session's complete state. The session
// stays usable; checkpointing is read-only.
func (s *TuningSession) Checkpoint() ([]byte, error) { return s.inner.Checkpoint() }

// SessionStats are a session's robustness counters: surrogate-fit
// failures survived, iterations answered by space-filling sampling
// instead, and the most recent robust-ingestion gauges. They are not
// part of the checkpoint; a resumed session restarts them at zero.
type SessionStats struct {
	FitFailures  int64 // surrogate fits that failed and were degraded
	SpaceFill    int64 // iterations answered by space-filling sampling
	LastOutliers int64 // outliers excluded before the most recent fit
	LastImputed  int64 // failures penalty-imputed before the most recent fit
}

// Stats returns the robustness counters accumulated so far.
func (s *TuningSession) Stats() SessionStats {
	st := s.inner.Stats()
	return SessionStats{
		FitFailures:  st.FitFailures,
		SpaceFill:    st.SpaceFill,
		LastOutliers: st.LastOutliers,
		LastImputed:  st.LastImputed,
	}
}

// Done reports whether the budget is consumed.
func (s *TuningSession) Done() bool { return s.inner.Done() }

// Iter returns the number of recorded evaluations.
func (s *TuningSession) Iter() int { return s.inner.Iter() }

// Budget returns the evaluation budget.
func (s *TuningSession) Budget() int { return s.inner.Budget() }

// History returns the live evaluation history.
func (s *TuningSession) History() *History { return s.inner.History() }

// Algorithm returns the resolved proposer name.
func (s *TuningSession) Algorithm() string { return s.algorithm }
