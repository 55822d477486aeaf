package gp

import (
	"math"
	"math/rand"
	"testing"

	"gptunecrowd/internal/kernel"
)

func gridX(n int) [][]float64 {
	X := make([][]float64, n)
	for i := range X {
		X[i] = []float64{float64(i) / float64(n-1)}
	}
	return X
}

func TestFitRecoversSmoothFunction(t *testing.T) {
	f := func(x float64) float64 { return math.Sin(2 * math.Pi * x) }
	X := gridX(20)
	y := make([]float64, len(X))
	for i, x := range X {
		y[i] = f(x[0])
	}
	g, err := Fit(X, y, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Check interpolation quality away from the training grid.
	for _, x := range []float64{0.13, 0.42, 0.77} {
		mean, std := g.Predict([]float64{x})
		if math.Abs(mean-f(x)) > 0.05 {
			t.Fatalf("predict(%v) = %v, want ~%v", x, mean, f(x))
		}
		if std < 0 {
			t.Fatalf("negative std %v", std)
		}
	}
}

func TestPredictNearTrainingPointIsExact(t *testing.T) {
	X := gridX(10)
	y := make([]float64, len(X))
	for i, x := range X {
		y[i] = 3*x[0] + 1
	}
	g, err := Fit(X, y, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		mean, _ := g.Predict(x)
		if math.Abs(mean-y[i]) > 0.05 {
			t.Fatalf("training point %d: %v vs %v", i, mean, y[i])
		}
	}
}

func TestUncertaintyGrowsAwayFromData(t *testing.T) {
	X := [][]float64{{0.4}, {0.45}, {0.5}, {0.55}, {0.6}}
	y := []float64{1, 1.1, 1.2, 1.1, 1}
	g, err := Fit(X, y, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, stdNear := g.Predict([]float64{0.5})
	_, stdFar := g.Predict([]float64{0.0})
	if stdFar <= stdNear {
		t.Fatalf("std should grow away from data: near=%v far=%v", stdNear, stdFar)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil, Options{}); err == nil {
		t.Fatal("expected ErrNoData")
	}
	if _, err := Fit([][]float64{{0}}, []float64{1, 2}, Options{}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	if _, err := Fit([][]float64{{0}, {1, 2}}, []float64{1, 2}, Options{}); err == nil {
		t.Fatal("expected dimension-mismatch error")
	}
	if _, err := Fit([][]float64{{0}}, []float64{math.NaN()}, Options{}); err == nil {
		t.Fatal("expected non-finite target error")
	}
	if _, err := Fit([][]float64{{0}, {math.Inf(1)}}, []float64{1, 2}, Options{}); err == nil {
		t.Fatal("expected non-finite input error")
	}
	if _, err := Fit([][]float64{{math.NaN()}}, []float64{1}, Options{}); err == nil {
		t.Fatal("expected NaN input error")
	}
	// Crowd-fed histories are the source of these values; Fit must
	// return a recoverable error (the degradation path's trigger), never
	// panic or produce a poisoned model.
}

func TestFitSingleSample(t *testing.T) {
	g, err := Fit([][]float64{{0.5, 0.5}}, []float64{42}, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	mean, std := g.Predict([]float64{0.5, 0.5})
	if math.Abs(mean-42) > 1 {
		t.Fatalf("single-sample mean %v", mean)
	}
	if std < 0 {
		t.Fatal("negative std")
	}
}

func TestFitConstantTargets(t *testing.T) {
	X := gridX(5)
	y := []float64{7, 7, 7, 7, 7}
	g, err := Fit(X, y, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	mean, _ := g.Predict([]float64{0.3})
	if math.Abs(mean-7) > 0.5 {
		t.Fatalf("constant prediction %v", mean)
	}
}

func TestNoisyFitSmooths(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 40
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := rng.Float64()
		X[i] = []float64{x}
		y[i] = x*x + rng.NormFloat64()*0.05
	}
	g, err := Fit(X, y, Options{Seed: 6, Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	var mse float64
	for _, x := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		mean, _ := g.Predict([]float64{x})
		mse += (mean - x*x) * (mean - x*x)
	}
	if mse/5 > 0.01 {
		t.Fatalf("noisy fit MSE %v too high", mse/5)
	}
	if g.NoiseVar() <= 0 {
		t.Fatal("noise variance should be positive")
	}
}

func TestKernelOptionRespected(t *testing.T) {
	X := gridX(8)
	y := make([]float64, len(X))
	for i, x := range X {
		y[i] = x[0]
	}
	for _, kt := range []kernel.Type{kernel.RBF, kernel.Matern32, kernel.Matern52} {
		g, err := Fit(X, y, Options{Kernel: kt, Seed: 7})
		if err != nil {
			t.Fatalf("%v: %v", kt, err)
		}
		mean, _ := g.Predict([]float64{0.5})
		if math.Abs(mean-0.5) > 0.1 {
			t.Fatalf("%v: predict(0.5) = %v", kt, mean)
		}
	}
}

func TestCategoricalDimension(t *testing.T) {
	// Two categories with different levels; GP must separate them.
	X := [][]float64{
		{0.1, 0.25}, {0.5, 0.25}, {0.9, 0.25}, // category A (code 0.25)
		{0.1, 0.75}, {0.5, 0.75}, {0.9, 0.75}, // category B (code 0.75)
	}
	y := []float64{1, 1, 1, 5, 5, 5}
	g, err := Fit(X, y, Options{Categorical: []bool{false, true}, Seed: 8, Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	ma, _ := g.Predict([]float64{0.3, 0.25})
	mb, _ := g.Predict([]float64{0.3, 0.75})
	if math.Abs(ma-1) > 0.8 || math.Abs(mb-5) > 0.8 {
		t.Fatalf("categorical separation failed: %v / %v", ma, mb)
	}
}

func TestFitFixed(t *testing.T) {
	X := gridX(6)
	y := []float64{0, 1, 2, 3, 4, 5}
	kern := kernel.New(kernel.RBF, 1)
	h := kernel.NewHyper(1)
	h.LogLength[0] = math.Log(0.3)
	g, err := FitFixed(X, y, kern, h, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	mean, _ := g.Predict([]float64{0.2})
	if math.Abs(mean-1) > 0.3 {
		t.Fatalf("FitFixed predict %v", mean)
	}
	if g.NumSamples() != 6 || g.Dim() != 1 {
		t.Fatal("metadata wrong")
	}
	if _, err := FitFixed(X, y[:3], kern, h, 1e-6); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	bad := append(append([][]float64(nil), X[:5]...), []float64{math.NaN()})
	if _, err := FitFixed(bad, y, kern, h, 1e-6); err == nil {
		t.Fatal("expected non-finite input error")
	}
}

func TestPredictBatchAgreesWithPredict(t *testing.T) {
	X := gridX(10)
	y := make([]float64, len(X))
	for i, x := range X {
		y[i] = math.Cos(3 * x[0])
	}
	g, err := Fit(X, y, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	q := [][]float64{{0.1}, {0.6}, {0.95}}
	means, stds := make([]float64, len(q)), make([]float64, len(q))
	g.PredictBatchInto(q, means, stds, 0)
	for i, x := range q {
		m, s := g.Predict(x)
		if m != means[i] || s != stds[i] {
			t.Fatal("batch/single mismatch")
		}
	}
	if pm := g.PredictMean(q[1]); math.Abs(pm-means[1]) > 1e-12 {
		t.Fatal("PredictMean mismatch")
	}
}
