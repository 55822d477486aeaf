package gp

import (
	"fmt"
	"math"
)

// Observe appends one observation (x, y) to the fitted model with an
// incremental O(n²) posterior update: the covariance factor is extended
// by one bordered row (linalg.Cholesky.AppendRow) and alpha is re-solved
// against the stored standardized targets. Hyperparameters and the
// target standardization are frozen at their last-fit values, so the
// posterior is exactly the one a full FitFixed on the appended data
// would produce under those frozen choices — callers bound the drift of
// the frozen choices themselves by scheduling periodic full refits
// (ObservedSinceFit reports how overdue one is).
//
// Observe mutates the model and is NOT safe to call concurrently with
// Predict or with itself; the suggest service serializes it behind a
// write lock. On error (dimension mismatch, non-finite input, loss of
// positive definiteness) the model is unchanged and the caller should
// fall back to a full refit.
func (g *GP) Observe(x []float64, y float64) error {
	if g.chol == nil {
		return ErrNoData
	}
	dim := g.kern.Dim
	if len(x) != dim {
		return fmt.Errorf("gp: Observe input has dimension %d, want %d", len(x), dim)
	}
	for j, c := range x {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("gp: Observe input coordinate %d is not finite (%v)", j, c)
		}
	}
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return fmt.Errorf("gp: Observe target is not finite (%v)", y)
	}

	n := len(g.x)
	ks := make([]float64, n)
	for i := 0; i < n; i++ {
		ks[i] = g.kern.Eval(x, g.x[i], g.hyper)
	}
	d := g.kern.Diag(g.hyper) + math.Exp(g.lnoise)
	if err := g.chol.AppendRow(ks, d); err != nil {
		return fmt.Errorf("gp: incremental update lost positive definiteness: %w", err)
	}

	// Append copies under fixed capacity so the grown model never aliases
	// caller storage or a slice shared with a snapshot of the old model.
	xc := append([]float64(nil), x...)
	g.x = append(g.x[:n:n], xc)
	g.ys = append(g.ys[:n:n], (y-g.meanY)/g.stdY)
	g.alpha = g.chol.SolveVec(g.ys)
	g.observed++
	return nil
}

// ObservedSinceFit returns the number of incremental Observe updates
// absorbed since the last full factorization (Fit, FitFixed, Restore).
func (g *GP) ObservedSinceFit() int { return g.observed }

// Standardization returns the frozen target standardization (mean,
// standard deviation) the model predicts through.
func (g *GP) Standardization() (mean, std float64) { return g.meanY, g.stdY }
