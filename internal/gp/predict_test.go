package gp

import (
	"math"
	"testing"

	"gptunecrowd/internal/kernel"
	"gptunecrowd/internal/linalg"
)

// twoSolveVariance is the predictive variance in its two-solve form,
// prior − k·K⁻¹k, before the clamp.
func (g *GP) twoSolveVariance(x []float64) float64 {
	ks := make([]float64, len(g.x))
	for i := range ks {
		ks[i] = g.kern.Eval(x, g.x[i], g.hyper)
	}
	return g.kern.Diag(g.hyper) - linalg.Dot(ks, g.chol.SolveVec(ks))
}

// Predict computes the variance as prior − ‖L⁻¹k‖², one forward
// substitution. It must match the two-solve form to 1e-10 relative to
// the prior, and a warm Predict must not allocate.
func TestPredictVarianceMatchesTwoSolveForm(t *testing.T) {
	X, Y := fitFixture(60, 3, 7)
	g, err := Fit(X, Y, Options{Seed: 3, Restarts: 1, MaxIter: 20})
	if err != nil {
		t.Fatal(err)
	}
	P, _ := fitFixture(50, 3, 8)
	P = append(P, X[:5]...)
	prior := g.kern.Diag(g.hyper)
	for i, x := range P {
		want := math.Max(g.twoSolveVariance(x), 1e-12)
		_, std := g.Predict(x)
		got := (std / g.stdY) * (std / g.stdY)
		if math.Abs(got-want) > 1e-10*prior {
			t.Fatalf("point %d: variance %v, two-solve form %v", i, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { g.Predict(P[0]) }); allocs != 0 {
		t.Fatalf("warm Predict allocates %v times", allocs)
	}
}

// At an input repeated 300 times under noise variance 1e-10 the exact
// variance is about 3e-13 and the computed one cancels to round-off;
// Predict must clamp it at 1e-12, never below.
func TestPredictVarianceClamped(t *testing.T) {
	X := make([][]float64, 300)
	y := make([]float64, len(X))
	for i := range X {
		X[i] = []float64{0.5}
		y[i] = float64(i % 2)
	}
	g, err := FitFixed(X, y, kernel.New(kernel.Matern52, 1), kernel.NewHyper(1), 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if v := g.twoSolveVariance(X[0]); v >= 1e-12 {
		t.Fatalf("unclamped variance %v does not reach the clamp", v)
	}
	floor := g.stdY * math.Sqrt(1e-12)
	if _, std := g.Predict(X[0]); !(std >= floor) {
		t.Fatalf("std %v below the clamp %v", std, floor)
	}
}
