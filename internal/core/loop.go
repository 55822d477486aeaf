package core

import (
	"context"
	"math/rand"
)

// Proposer suggests the next tuning-parameter point given the target
// task's evaluation history. The plain GP tuner and every TLA algorithm
// implement this interface.
type Proposer interface {
	// Name identifies the algorithm (e.g. "NoTLA", "Multitask(TS)").
	Name() string
	// Propose returns the next normalized (canonical) point to evaluate.
	Propose(ctx *ProposeContext) ([]float64, error)
}

// ProposeContext carries everything a proposer may need.
type ProposeContext struct {
	Problem *Problem
	Task    map[string]interface{}
	History *History
	Rng     *rand.Rand
	Iter    int // 0-based evaluation index
	Budget  int // total evaluation budget (0 when the driver has none)
	Search  SearchOptions

	// Stats, when non-nil, accumulates the session's robustness
	// counters (fit failures survived, space-filling fallbacks, robust
	// ingestion gauges). Proposers report through the helpers below.
	Stats *RobustStats
	// Logf, when non-nil, receives degradation log lines.
	Logf func(format string, args ...interface{})

	// Ctx, when non-nil, allows cancelling a proposal between its
	// stages (before the surrogate fit, between fit and acquisition
	// search). Proposers check it with Cancelled; a nil Ctx never
	// cancels.
	Ctx context.Context
	// Timers, when non-nil, receives per-stage durations (surrogate
	// fit, acquisition search). All methods are nil-safe.
	Timers *Timers
}

// Cancelled returns the context's error when the proposal should stop,
// nil otherwise (including when no context was supplied).
func (ctx *ProposeContext) Cancelled() error {
	if ctx.Ctx == nil {
		return nil
	}
	return ctx.Ctx.Err()
}

// NoteFitFailure counts and logs a surrogate fit failure that the
// proposer survives by answering this iteration from fallback (named
// for the log line) instead of aborting the session.
func (ctx *ProposeContext) NoteFitFailure(proposer, fallback string, fitErr error) {
	if ctx.Stats != nil {
		ctx.Stats.FitFailures++
	}
	if ctx.Logf != nil {
		ctx.Logf("%s: surrogate fit failed at iteration %d, degrading to %s: %v",
			proposer, ctx.Iter, fallback, fitErr)
	}
}

// DegradeToSpaceFill records that a surrogate fit failed and the
// proposer is answering this iteration with space-filling sampling,
// then draws the fallback point.
func (ctx *ProposeContext) DegradeToSpaceFill(proposer string, fitErr error) []float64 {
	ctx.NoteFitFailure(proposer, "space-filling sampling", fitErr)
	if ctx.Stats != nil {
		ctx.Stats.SpaceFill++
	}
	return ctx.RandomFeasible()
}

// NoteRobustIngestion records what the robust sample filter did before
// the current fit.
func (ctx *ProposeContext) NoteRobustIngestion(info RobustInfo) {
	if ctx.Stats != nil {
		ctx.Stats.LastOutliers = int64(info.Outliers)
		ctx.Stats.LastImputed = int64(info.Imputed)
	}
	if ctx.Logf != nil && (info.Outliers > 0 || info.NonFinite > 0) {
		ctx.Logf("robust ingestion at iteration %d: kept %d, excluded %d outliers, imputed %d failures, dropped %d non-finite",
			ctx.Iter, info.OK, info.Outliers, info.Imputed, info.NonFinite)
	}
}

// RandomFeasible draws a random canonical point satisfying the
// problem's constraints (falling back to an unconstrained draw after
// many rejections, so a badly specified constraint cannot hang the
// loop).
func (ctx *ProposeContext) RandomFeasible() []float64 {
	sp := ctx.Problem.ParamSpace
	for i := 0; i < 256; i++ {
		u := RandomPoint(sp, ctx.Rng)
		if ctx.Search.Feasible == nil || ctx.Search.Feasible(u) {
			return u
		}
	}
	return RandomPoint(sp, ctx.Rng)
}

// RunLoop executes the iterative tuning loop — propose → evaluate →
// record for opts.Budget evaluations — on a fresh Session. Failed
// evaluations are recorded and count against the budget but are
// invisible to surrogate fits (the History.XY accessor skips them).
func RunLoop(p *Problem, task map[string]interface{}, proposer Proposer, opts SessionOptions) (*History, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s, err := NewSession(p, task, proposer, opts)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
