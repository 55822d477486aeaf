package copula

import (
	"math"
	"math/rand"
	"testing"

	"gptunecrowd/internal/core"
	"gptunecrowd/internal/stat"
)

var _ core.Surrogate = (*Model)(nil)

// TestNormalRoundTrip pins the CDF→quantile→CDF identity the score
// transform rests on to 1e-9 across the practically reachable range.
func TestNormalRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-6, 1e-4, 0.01, 0.02425, 0.1, 0.25, 0.5, 0.75, 0.9, 0.97575, 0.99, 0.9999, 1 - 1e-6} {
		got := stat.NormCDF(stat.NormQuantile(p))
		if math.Abs(got-p) > 1e-9 {
			t.Fatalf("NormCDF(NormQuantile(%v)) = %v, off by %v", p, got, math.Abs(got-p))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		p := rng.Float64()*0.9998 + 1e-4
		if got := stat.NormCDF(stat.NormQuantile(p)); math.Abs(got-p) > 1e-9 {
			t.Fatalf("round-trip at p=%v off by %v", p, math.Abs(got-p))
		}
	}
}

// TestTransformKnotRoundTrip checks Value(Score(y)) == y to 1e-9 for
// every training value, including duplicates.
func TestTransformKnotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ys := make([]float64, 500)
	for i := range ys {
		ys[i] = math.Floor(rng.NormFloat64()*1e4) / 1e3 // induces ties
	}
	tr := newTransform(ys)
	for _, y := range ys {
		if got := tr.Value(tr.Score(y)); math.Abs(got-y) > 1e-9 {
			t.Fatalf("round-trip of %v gave %v", y, got)
		}
	}
}

func TestTransformMonotoneAndClamped(t *testing.T) {
	tr := newTransform([]float64{3, 1, 2, 2, 5})
	prev := math.Inf(-1)
	for y := 0.0; y <= 6; y += 0.05 {
		z := tr.Score(y)
		if z < prev {
			t.Fatalf("Score not monotone at y=%v", y)
		}
		prev = z
	}
	if tr.Value(-100) != 1 || tr.Value(100) != 5 {
		t.Fatalf("Value should clamp to the knot range, got %v / %v", tr.Value(-100), tr.Value(100))
	}
	if tr.Score(-100) != tr.zk[0] || tr.Score(100) != tr.zk[len(tr.zk)-1] {
		t.Fatal("Score should clamp to the knot range")
	}
	prev = math.Inf(-1)
	for z := -3.0; z <= 3; z += 0.05 {
		v := tr.Value(z)
		if v < prev {
			t.Fatalf("Value not monotone at z=%v", z)
		}
		prev = v
	}
}

// testFunc is monotone in x but strongly nonlinear — the structure
// the copula can recover exactly (its conditional is linear in score
// space, so only the monotone trend transfers, not absolute shape).
func testFunc(x float64) float64 { return math.Exp(2*x) + 0.3*math.Sin(5*x) }

func sampleTask(n int, rng *rand.Rand) ([][]float64, []float64) {
	X := make([][]float64, n)
	Y := make([]float64, n)
	for i := range X {
		x := rng.Float64()
		X[i] = []float64{x}
		Y[i] = testFunc(x)
	}
	return X, Y
}

// TestTransferPrediction fits on a correlated source plus a handful of
// target points and checks the predictions rank-correlate strongly
// with the truth — the property the copula actually guarantees (it
// models monotone-transformed structure, not absolute values).
func TestTransferPrediction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sx, sy := sampleTask(200, rng)
	m := New(1, []Source{{Name: "src", X: sx, Y: sy}})
	tx, ty := sampleTask(5, rng)
	if err := m.Fit(tx, ty); err != nil {
		t.Fatal(err)
	}
	var pred, truth []float64
	for i := 0; i <= 50; i++ {
		x := float64(i) / 50
		mean, std := m.Predict([]float64{x})
		if math.IsNaN(mean) || std <= 0 {
			t.Fatalf("bad posterior at x=%v: mean=%v std=%v", x, mean, std)
		}
		pred = append(pred, mean)
		truth = append(truth, testFunc(x))
	}
	if rho := stat.Spearman(pred, truth); rho < 0.9 {
		t.Fatalf("transfer prediction rank correlation %v, want >= 0.9", rho)
	}
}

// TestFewShotNoTargetSamples exercises the pure-transfer path: no
// target data at all, prior comes entirely from the source.
func TestFewShotNoTargetSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sx, sy := sampleTask(100, rng)
	m := New(1, []Source{{Name: "src", X: sx, Y: sy}})
	if err := m.Fit(nil, nil); err != nil {
		t.Fatal(err)
	}
	mean, std := m.Predict([]float64{0.5})
	if math.IsNaN(mean) || std <= 0 {
		t.Fatalf("few-shot posterior mean=%v std=%v", mean, std)
	}
}

func TestObserveRefits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sx, sy := sampleTask(80, rng)
	m := New(1, []Source{{X: sx, Y: sy}})
	if err := m.Fit(nil, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		x := rng.Float64()
		if err := m.Observe([]float64{x}, testFunc(x)); err != nil {
			t.Fatal(err)
		}
	}
	if m.TargetLen() != 10 {
		t.Fatalf("TargetLen = %d, want 10", m.TargetLen())
	}
	// With >= 2 distinct target values the inverse map must come from
	// the target history: predictions stay inside its value range.
	lo, hi := stat.Min(m.ty), stat.Max(m.ty)
	for i := 0; i <= 20; i++ {
		mean, _ := m.Predict([]float64{float64(i) / 20})
		if mean < lo-1e-12 || mean > hi+1e-12 {
			t.Fatalf("prediction %v escapes target range [%v, %v]", mean, lo, hi)
		}
	}
}

// TestBatchMatchesPointwiseAllWorkerCounts pins the determinism
// contract: PredictBatchInto is bit-identical to Predict for every
// worker count.
func TestBatchMatchesPointwiseAllWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sx, sy := sampleTask(150, rng)
	m := New(1, []Source{{X: sx, Y: sy}})
	tx, ty := sampleTask(8, rng)
	if err := m.Fit(tx, ty); err != nil {
		t.Fatal(err)
	}
	X := make([][]float64, 64)
	for i := range X {
		X[i] = []float64{rng.Float64()}
	}
	wantM := make([]float64, len(X))
	wantS := make([]float64, len(X))
	for i, x := range X {
		wantM[i], wantS[i] = m.Predict(x)
	}
	for _, workers := range []int{1, 2, 4, 7} {
		gotM := make([]float64, len(X))
		gotS := make([]float64, len(X))
		m.PredictBatchInto(X, gotM, gotS, workers)
		for i := range X {
			if gotM[i] != wantM[i] || gotS[i] != wantS[i] {
				t.Fatalf("workers=%d: batch (%v,%v) != pointwise (%v,%v) at %d",
					workers, gotM[i], gotS[i], wantM[i], wantS[i], i)
			}
		}
	}
}

func TestErrorsAndPrior(t *testing.T) {
	m := New(2, nil)
	if mean, std := m.Predict([]float64{0, 0}); mean != 0 || std != 1 {
		t.Fatalf("unfitted prior = (%v, %v), want (0, 1)", mean, std)
	}
	if err := m.Fit([][]float64{{0, 0}}, []float64{1}); err == nil {
		t.Fatal("Fit with one pooled sample should fail")
	}
	if err := m.Fit([][]float64{{0}}, []float64{1}); err == nil {
		t.Fatal("Fit with wrong-dim point should fail")
	}
	if err := m.Fit([][]float64{{0, 0}}, nil); err == nil {
		t.Fatal("Fit with mismatched lengths should fail")
	}
	if err := m.Observe([]float64{0}, 1); err == nil {
		t.Fatal("Observe with wrong-dim point should fail")
	}
	if m.Name() != "copula" {
		t.Fatalf("Name = %q", m.Name())
	}
}

func TestCostMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sx, sy := sampleTask(50, rng)
	m := New(3, []Source{{X: sx, Y: sy}})
	prev := 0.0
	for _, n := range []int{0, 10, 100, 1000, 10000} {
		c := m.Cost(n)
		if c <= prev {
			t.Fatalf("Cost(%d) = %v not increasing past %v", n, c, prev)
		}
		prev = c
	}
	// Identical inputs must give identical estimates (determinism).
	if m.Cost(500) != m.Cost(500) {
		t.Fatal("Cost is not deterministic")
	}
}
