package core

import "gptunecrowd/internal/parallel"

// Predictor is the minimal posterior-model interface the acquisition
// machinery consumes: the GP, LCM-slice and combined transfer-learning
// models all satisfy it. Before the surrogate-pool redesign this
// interface was called Surrogate; Surrogate is now the full
// fit/observe/predict lifecycle below, and every Surrogate is a
// Predictor.
type Predictor interface {
	// Predict returns the posterior mean and standard deviation at x.
	Predict(x []float64) (mean, std float64)
}

// BatchPredictor is a Predictor with a vectorized prediction path.
// SearchNext scores its candidate prescreen pool through one
// PredictBatchInto call instead of per-point Predict calls when the
// model provides it.
type BatchPredictor interface {
	Predictor
	// PredictBatchInto evaluates Predict over the rows of X into
	// caller-owned means/stds slices (len(X) each). Each output slot is
	// written by exactly one worker, so results are bit-identical for
	// every worker count.
	PredictBatchInto(X [][]float64, means, stds []float64, workers int)
}

// Surrogate is a first-class posterior model with a full lifecycle:
// fit on a history, absorb single observations incrementally, predict
// (pointwise and batched), and report its identity and fit cost so a
// selector can choose between models. Every model family — the exact
// GP, the LCM, the Gaussian copula, the sparse GP and the Table I
// transfer models — is built by surrogate.New.
type Surrogate interface {
	BatchPredictor
	// Fit (re)trains the model on inputs X (rows in the unit hypercube)
	// and targets y, replacing any previous state.
	Fit(X [][]float64, Y []float64) error
	// Observe folds one additional observation into the fitted model.
	// Implementations without an incremental path may refit; callers
	// treat an error as "refit me from scratch".
	Observe(x []float64, y float64) error
	// Name identifies the model family: the kind surrogate.New built it
	// from ("gp", "lcm", "Stacking", ...).
	Name() string
	// Cost estimates the fit cost for n samples in arbitrary but
	// mutually comparable units (the exact GP is n³). The bandit
	// selector uses these estimates — not wall-clock timings — so that
	// selection stays a deterministic function of the history and the
	// RNG stream, which the checkpoint/replay test wall requires.
	Cost(n int) float64
}

// SurrogateFunc adapts a pointwise function to the BatchPredictor
// interface.
type SurrogateFunc func(x []float64) (float64, float64)

// Predict implements Predictor.
func (f SurrogateFunc) Predict(x []float64) (float64, float64) { return f(x) }

// PredictBatchInto implements BatchPredictor by fanning f out over
// workers, one slot per row.
func (f SurrogateFunc) PredictBatchInto(X [][]float64, means, stds []float64, workers int) {
	parallel.For(len(X), workers, func(i int) {
		means[i], stds[i] = f(X[i])
	})
}
