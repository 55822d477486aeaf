package sgp

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"gptunecrowd/internal/gp"
	"gptunecrowd/internal/kernel"
	"gptunecrowd/internal/linalg"
	"gptunecrowd/internal/parallel"
)

func smooth(x []float64) float64 {
	return math.Sin(3*x[0]) + 0.5*math.Cos(5*x[1]) + x[0]*x[1]
}

func sampleSmooth(n int, rng *rand.Rand) ([][]float64, []float64) {
	X := make([][]float64, n)
	Y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64()}
		Y[i] = smooth(X[i])
	}
	return X, Y
}

func testHyper() (*kernel.Kernel, *kernel.Hyper) {
	kern := kernel.New(kernel.Matern52, 2)
	h := kernel.NewHyper(2)
	h.LogLength[0] = math.Log(0.3)
	h.LogLength[1] = math.Log(0.3)
	h.LogVar = 0
	return kern, h
}

// TestAgreesWithExactGPAtFullInducing pins the algebraic identity the
// DTC approximation is built on: with Z = X and identical
// hyperparameters and noise, the sparse posterior equals the exact GP
// posterior — mean and variance — up to factorization round-off.
func TestAgreesWithExactGPAtFullInducing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, Y := sampleSmooth(40, rng)
	kern, h := testHyper()
	const noiseVar = 1e-4

	exact, err := gp.FitFixed(X, Y, kern, h, noiseVar)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := FitFixed(X, Y, kern, h, noiseVar, X)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		em, es := exact.Predict(x)
		sm, ss := sparse.Predict(x)
		if math.Abs(em-sm) > 1e-6 {
			t.Fatalf("mean mismatch at %v: exact %v, sparse %v", x, em, sm)
		}
		if math.Abs(es-ss) > 1e-6 {
			t.Fatalf("std mismatch at %v: exact %v, sparse %v", x, es, ss)
		}
	}
}

// TestObserveMatchesRefit checks the rank-1 update against a full
// rebuild. The appended targets come in (μ+σ, μ−σ) pairs so the
// Fit-time standardization is identical in both models and the only
// difference is the update path.
func TestObserveMatchesRefit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X, Y := sampleSmooth(30, rng)
	var mu, sd float64
	for _, v := range Y {
		mu += v
	}
	mu /= float64(len(Y))
	for _, v := range Y {
		sd += (v - mu) * (v - mu)
	}
	sd = math.Sqrt(sd / float64(len(Y)))

	kern, h := testHyper()
	Z := farthestPoints(X, 12)
	inc, err := FitFixed(X, Y, kern, h, 1e-3, Z)
	if err != nil {
		t.Fatal(err)
	}
	allX := append([][]float64(nil), X...)
	allY := append([]float64(nil), Y...)
	for i := 0; i < 4; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		y := mu + sd
		if i%2 == 1 {
			y = mu - sd
		}
		if err := inc.Observe(x, y); err != nil {
			t.Fatal(err)
		}
		allX = append(allX, x)
		allY = append(allY, y)
	}
	refit, err := FitFixed(allX, allY, kern, h, 1e-3, Z)
	if err != nil {
		t.Fatal(err)
	}
	if inc.ObservedSinceFit() != 4 || inc.NumSamples() != 34 {
		t.Fatalf("counters: observed %d, samples %d", inc.ObservedSinceFit(), inc.NumSamples())
	}
	for i := 0; i < 50; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		im, is := inc.Predict(x)
		rm, rs := refit.Predict(x)
		if math.Abs(im-rm) > 1e-8 || math.Abs(is-rs) > 1e-8 {
			t.Fatalf("incremental (%v, %v) != refit (%v, %v) at %v", im, is, rm, rs, x)
		}
	}
}

// TestFitApproximatesFunction is the end-to-end smoke test: full Fit
// (hyper subsample + farthest-point inducing) on a dense history must
// predict the underlying smooth function well with m ≪ n.
func TestFitApproximatesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X, Y := sampleSmooth(600, rng)
	m, err := Fit(X, Y, Options{MaxInducing: 48, HyperSubsample: 120, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumInducing() != 48 {
		t.Fatalf("inducing = %d, want 48", m.NumInducing())
	}
	var sse, sst float64
	var meanY float64
	for _, y := range Y {
		meanY += y
	}
	meanY /= float64(len(Y))
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		truth := smooth(x)
		pred, std := m.Predict(x)
		if math.IsNaN(pred) || std <= 0 {
			t.Fatalf("bad posterior at %v: %v, %v", x, pred, std)
		}
		sse += (pred - truth) * (pred - truth)
		sst += (truth - meanY) * (truth - meanY)
	}
	if r2 := 1 - sse/sst; r2 < 0.95 {
		t.Fatalf("sparse fit R² = %v, want >= 0.95", r2)
	}
}

// TestBatchMatchesPointwiseAllWorkerCounts pins the determinism
// contract of the batched prediction path.
func TestBatchMatchesPointwiseAllWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	X, Y := sampleSmooth(120, rng)
	kern, h := testHyper()
	m, err := FitFixed(X, Y, kern, h, 1e-3, farthestPoints(X, 16))
	if err != nil {
		t.Fatal(err)
	}
	Q := make([][]float64, 64)
	for i := range Q {
		Q[i] = []float64{rng.Float64(), rng.Float64()}
	}
	wantM := make([]float64, len(Q))
	wantS := make([]float64, len(Q))
	for i, x := range Q {
		wantM[i], wantS[i] = m.Predict(x)
	}
	for _, workers := range []int{1, 3, 8} {
		gotM := make([]float64, len(Q))
		gotS := make([]float64, len(Q))
		m.PredictBatchInto(Q, gotM, gotS, workers)
		for i := range Q {
			if gotM[i] != wantM[i] || gotS[i] != wantS[i] {
				t.Fatalf("workers=%d: slot %d differs", workers, i)
			}
		}
	}
}

// Both variance terms are squared norms of one forward substitution;
// together they must match the two-solve form
// k** − k·Kuu⁻¹k + k·A⁻¹k to 1e-10 relative to the prior, and a warm
// Predict must not allocate.
func TestPredictVarianceMatchesTwoSolveForm(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	X, Y := sampleSmooth(150, rng)
	kern, h := testHyper()
	m, err := FitFixed(X, Y, kern, h, 1e-3, farthestPoints(X, 24))
	if err != nil {
		t.Fatal(err)
	}
	prior := kern.Diag(h)
	for i := 0; i < 40; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		ku := make([]float64, len(m.z))
		kern.RowInto(x, m.z, h, ku, make([]float64, kern.Dim))
		want := prior - linalg.Dot(ku, m.cholKuu.SolveVec(ku)) + linalg.Dot(ku, m.cholA.SolveVec(ku))
		want = math.Max(want, 1e-12)
		_, std := m.Predict(x)
		got := (std / m.stdY) * (std / m.stdY)
		if math.Abs(got-want) > 1e-10*prior {
			t.Fatalf("point %d: variance %v, two-solve form %v", i, got, want)
		}
	}
	x := []float64{0.3, 0.6}
	if allocs := testing.AllocsPerRun(100, func() { m.Predict(x) }); allocs != 0 && !raceEnabled {
		t.Fatalf("warm Predict allocates %v times", allocs)
	}
}

func TestFarthestPointsDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	X := make([][]float64, 300)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	pick := func(workers int) [][]float64 {
		t.Setenv(parallel.EnvWorkers, strconv.Itoa(workers))
		return farthestPoints(X, 20)
	}
	want := pick(1)
	for _, workers := range []int{2, 4, 9} {
		got := pick(workers)
		for i := range want {
			for d := range want[i] {
				if got[i][d] != want[i][d] {
					t.Fatalf("workers=%d: inducing point %d differs", workers, i)
				}
			}
		}
	}
	// m >= n is the identity.
	if got := farthestPoints(X[:5], 10); len(got) != 5 {
		t.Fatalf("overshoot returned %d points", len(got))
	}

	// The whole fit — subsample hyperparameters, inducing points and
	// the Kuu/Kuf/A assembly — is bit-identical at 1 and 4 workers.
	Y := make([]float64, len(X))
	for i, x := range X {
		Y[i] = smooth(x) + x[2]*x[2]
	}
	fit := func(workers int) *SGP {
		t.Setenv(parallel.EnvWorkers, strconv.Itoa(workers))
		m, err := Fit(X, Y, Options{MaxInducing: 24, HyperSubsample: 48, Restarts: 2, MaxIter: 15, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ref, par := fit(1), fit(4)
	for i := 0; i < 20; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		m1, s1 := ref.Predict(x)
		m4, s4 := par.Predict(x)
		if m1 != m4 || s1 != s4 {
			t.Fatalf("probe %d: Fit at 4 workers predicts (%v, %v), at 1 worker (%v, %v)", i, m4, s4, m1, s1)
		}
	}
}

func TestSubsampleIndices(t *testing.T) {
	idx := subsampleIndices(1000, 100)
	if len(idx) != 100 || idx[0] != 0 || idx[99] != 999 {
		t.Fatalf("stride subsample = len %d, ends %d..%d", len(idx), idx[0], idx[len(idx)-1])
	}
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			t.Fatal("indices not strictly increasing")
		}
	}
	if got := subsampleIndices(10, 100); len(got) != 10 {
		t.Fatalf("small-n subsample = %d", len(got))
	}
}

func TestErrors(t *testing.T) {
	if _, err := Fit(nil, nil, Options{}); err != ErrNoData {
		t.Fatalf("empty fit err = %v", err)
	}
	if _, err := Fit([][]float64{{0}}, []float64{1, 2}, Options{}); err == nil {
		t.Fatal("length mismatch should fail")
	}
	kern, h := testHyper()
	if _, err := FitFixed([][]float64{{0, 0}}, []float64{1, 2}, kern, h, 1e-3, [][]float64{{0, 0}}); err == nil {
		t.Fatal("FitFixed length mismatch should fail")
	}
	rng := rand.New(rand.NewSource(6))
	X, Y := sampleSmooth(20, rng)
	m, err := FitFixed(X, Y, kern, h, 1e-3, X[:4])
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Observe([]float64{0, 0}, math.NaN()); err == nil {
		t.Fatal("NaN observation should fail")
	}
}
