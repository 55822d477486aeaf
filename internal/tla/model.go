package tla

import (
	"errors"
	"fmt"

	"gptunecrowd/internal/core"
	"gptunecrowd/internal/gp"
	"gptunecrowd/internal/lcm"
)

// lcmFit and targetFit substitute the LCM fit and the per-round target
// GP fit in tests (fit-degradation coverage).
var (
	lcmFit    = lcm.Fit
	targetFit = gp.Fit
)

// ErrSourceOnly is wrapped by a Fit that could not model the target
// rows and answers from the source surrogates alone. The model stays
// usable — a softer fallback than space-filling — but the failure is
// the caller's to count and log.
var ErrSourceOnly = errors.New("tla: target fit failed, predicting from the sources alone")

// Model gives a Table I transfer model the core.Surrogate lifecycle.
// Such a model is a fit rule — target rows in, predictor out — over
// source surrogates fitted once per run, so it has no incremental
// update (Observe appends the row and refits) and no vectorized
// prediction path. Every one fits on zero target rows, answering from
// the sources alone.
type Model struct {
	name string
	fit  func(X [][]float64, Y []float64, seed int64) (core.Predictor, error)
	cost func(n int) float64 // nil = one cubic target-side fit

	seed int64
	x    [][]float64
	y    []float64
	pred core.Predictor
}

// Name implements core.Surrogate with the model's Table I name.
func (m *Model) Name() string { return m.name }

// SetSeed reseeds the next Fit.
func (m *Model) SetSeed(seed int64) { m.seed = seed }

// Cost implements core.Surrogate: every Table I model refits a cubic
// target-side model per round.
func (m *Model) Cost(n int) float64 {
	if m.cost != nil {
		return m.cost(n)
	}
	fn := float64(n)
	return 1e-9 * fn * fn * fn
}

// Fit implements core.Surrogate. An error wrapping ErrSourceOnly
// leaves the model fitted on the sources alone.
func (m *Model) Fit(X [][]float64, Y []float64) error {
	pred, err := m.fit(X, Y, m.seed)
	if pred != nil {
		m.pred, m.x, m.y = pred, X, Y
	}
	return err
}

// Observe appends the evaluation to the target rows and refits.
func (m *Model) Observe(x []float64, y float64) error {
	if m.pred == nil {
		return fmt.Errorf("tla: %s Observe before Fit", m.name)
	}
	X := append(append([][]float64(nil), m.x...), append([]float64(nil), x...))
	Y := append(append([]float64(nil), m.y...), y)
	return m.Fit(X, Y)
}

// Predict implements core.Surrogate.
func (m *Model) Predict(x []float64) (float64, float64) {
	if m.pred == nil {
		return 0, 1
	}
	return m.pred.Predict(x)
}

// PredictBatchInto implements core.Surrogate.
func (m *Model) PredictBatchInto(X [][]float64, means, stds []float64, workers int) {
	for i, x := range X {
		means[i], stds[i] = m.Predict(x)
	}
}

var _ core.Surrogate = (*Model)(nil)
