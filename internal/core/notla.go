package core

import (
	"time"

	"gptunecrowd/internal/gp"
)

// GPTuner is the non-transfer-learning Bayesian-optimization proposer
// ("NoTLA" in the paper): after every function evaluation it refits a GP
// surrogate on the target task's history and maximizes the acquisition.
// Until MinSamples successful evaluations exist it falls back to random
// (Latin-hypercube-style) points.
type GPTuner struct {
	Acquisition Acquisition
	MinSamples  int // successful samples required before modeling (default 2)
	label       string

	// fitFn substitutes the GP fit in tests (nil = gp.Fit).
	fitFn func(X [][]float64, Y []float64, opts gp.Options) (*gp.GP, error)
}

// NewGPTuner returns the default NoTLA proposer.
func NewGPTuner() *GPTuner {
	return &GPTuner{Acquisition: EI{}, MinSamples: 2}
}

// Name implements Proposer.
func (t *GPTuner) Name() string {
	if t.label != "" {
		return t.label
	}
	return "NoTLA"
}

// Propose implements Proposer.
func (t *GPTuner) Propose(ctx *ProposeContext) ([]float64, error) {
	if err := ctx.Cancelled(); err != nil {
		return nil, err
	}
	minSamples := t.MinSamples
	if minSamples < 2 {
		minSamples = 2
	}
	// Robust ingestion: MAD-filter outliers, impute failures at a
	// penalty, and keep anything non-finite away from the fit.
	X, Y, info := ctx.History.RobustXY()
	ctx.NoteRobustIngestion(info)
	if info.OK < minSamples {
		return ctx.RandomFeasible(), nil
	}
	fit := t.fitFn
	if fit == nil {
		fit = gp.Fit
	}
	fitStart := time.Now()
	model, err := fit(X, Y, gp.Options{
		Categorical: ctx.Problem.CategoricalMask(),
		Seed:        ctx.Rng.Int63(),
		Ctx:         ctx.Ctx,
	})
	ctx.Timers.ObserveFit(time.Since(fitStart))
	if cerr := ctx.Cancelled(); cerr != nil {
		// A cancelled fit must not be mistaken for surrogate trouble:
		// surface the cancellation instead of degrading.
		return nil, cerr
	}
	if err != nil {
		// Surrogate trouble should not kill the run; degrade to
		// space-filling sampling for this iteration (logged + counted).
		return ctx.DegradeToSpaceFill(t.Name(), err), nil
	}
	acq := t.Acquisition
	if acq == nil {
		acq = EI{}
	}
	searchStart := time.Now()
	u := SearchNext(model, ctx.Problem.ParamSpace, acq, ctx.History, ctx.Rng, ctx.Search)
	ctx.Timers.ObserveSearch(time.Since(searchStart))
	return u, nil
}
