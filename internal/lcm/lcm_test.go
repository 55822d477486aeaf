package lcm

import (
	"math"
	"math/rand"
	"testing"
)

// makeCorrelatedTasks builds two tasks that are shifted/scaled versions
// of the same underlying function.
func makeCorrelatedTasks(nSrc, nTgt int, seed int64) (X [][][]float64, Y [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	f := func(x float64) float64 { return math.Sin(2*math.Pi*x) + 0.5*x }
	Xs := make([][]float64, nSrc)
	Ys := make([]float64, nSrc)
	for i := range Xs {
		x := rng.Float64()
		Xs[i] = []float64{x}
		Ys[i] = f(x)
	}
	Xt := make([][]float64, nTgt)
	Yt := make([]float64, nTgt)
	for i := range Xt {
		x := rng.Float64()
		Xt[i] = []float64{x}
		Yt[i] = 2*f(x) + 1 // perfectly correlated, different scale
	}
	return [][][]float64{Xs, Xt}, [][]float64{Ys, Yt}
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(nil, nil, Options{}); err == nil {
		t.Fatal("expected error for no tasks")
	}
	if _, err := Fit([][][]float64{{}}, [][]float64{{}}, Options{}); err == nil {
		t.Fatal("expected ErrNoData")
	}
	if _, err := Fit([][][]float64{{{0.5}}}, [][]float64{{1, 2}}, Options{}); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := Fit([][][]float64{{{0.5}, {0.1, 0.2}}}, [][]float64{{1, 2}}, Options{}); err == nil {
		t.Fatal("expected dim mismatch error")
	}
	// Crowd-fed histories can carry NaN/Inf; Fit must reject them with a
	// recoverable error (the degradation trigger), never factorize them.
	if _, err := Fit([][][]float64{{{math.NaN()}}}, [][]float64{{1}}, Options{}); err == nil {
		t.Fatal("expected non-finite input error")
	}
	if _, err := Fit([][][]float64{{{0.5}}}, [][]float64{{math.Inf(1)}}, Options{}); err == nil {
		t.Fatal("expected non-finite target error")
	}
}

func TestSingleTaskBehavesLikeGP(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 15
	X := make([][]float64, n)
	Y := make([]float64, n)
	for i := range X {
		x := rng.Float64()
		X[i] = []float64{x}
		Y[i] = x * x
	}
	m, err := Fit([][][]float64{X}, [][]float64{Y}, Options{Seed: 1, MaxIter: 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.2, 0.5, 0.8} {
		mean, _, _ := m.Predict(0, []float64{x})
		if math.Abs(mean-x*x) > 0.1 {
			t.Fatalf("predict(%v) = %v, want ~%v", x, mean, x*x)
		}
	}
}

func TestTransferImprovesSparseTarget(t *testing.T) {
	// 40 source samples, 3 target samples of a correlated function.
	X, Y := makeCorrelatedTasks(40, 3, 2)
	m, err := Fit(X, Y, Options{Seed: 2, MaxIter: 40})
	if err != nil {
		t.Fatal(err)
	}
	f := func(x float64) float64 { return 2*(math.Sin(2*math.Pi*x)+0.5*x) + 1 }
	var mseLCM float64
	probe := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	for _, x := range probe {
		mean, _, _ := m.Predict(1, []float64{x})
		mseLCM += (mean - f(x)) * (mean - f(x))
	}
	mseLCM /= float64(len(probe))
	// A target-only model from 3 points cannot track a two-period
	// oscillation; the LCM with 40 correlated source samples should.
	if mseLCM > 0.5 {
		t.Fatalf("LCM transfer MSE too high: %v", mseLCM)
	}
	// Learned correlation should be clearly positive.
	if c := m.TaskCorrelation(0, 1); c < 0.3 {
		t.Fatalf("task correlation = %v, want strongly positive", c)
	}
}

func TestEmptyTargetTask(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 20
	Xs := make([][]float64, n)
	Ys := make([]float64, n)
	for i := range Xs {
		x := rng.Float64()
		Xs[i] = []float64{x}
		Ys[i] = math.Cos(3 * x)
	}
	m, err := Fit([][][]float64{Xs, nil}, [][]float64{Ys, nil}, Options{Seed: 3, MaxIter: 30})
	if err != nil {
		t.Fatal(err)
	}
	mean, std, _ := m.Predict(1, []float64{0.5})
	if math.IsNaN(mean) || math.IsNaN(std) || std <= 0 {
		t.Fatalf("empty-target prediction invalid: %v ± %v", mean, std)
	}
}

func TestUnequalSampleCounts(t *testing.T) {
	X, Y := makeCorrelatedTasks(30, 7, 4)
	m, err := Fit(X, Y, Options{Seed: 4, MaxIter: 30})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTasks() != 2 || m.Dim() != 1 {
		t.Fatal("metadata wrong")
	}
	// Predictions for both tasks must be finite with positive std.
	for task := 0; task < 2; task++ {
		mean, std, _ := m.Predict(task, []float64{0.42})
		if math.IsNaN(mean) || std <= 0 {
			t.Fatalf("task %d: invalid prediction", task)
		}
	}
}

func TestPredictErrorsOnBadTask(t *testing.T) {
	// Out-of-range task indices and wrong-dimension inputs can arrive
	// from crowd-supplied data; they must come back as errors, never as
	// a panic that takes down a session.
	X, Y := makeCorrelatedTasks(5, 5, 6)
	m, err := Fit(X, Y, Options{Seed: 6, Restarts: 1, MaxIter: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Predict(5, []float64{0.5}); err == nil {
		t.Fatal("expected error for out-of-range task")
	}
	if _, _, err := m.Predict(-1, []float64{0.5}); err == nil {
		t.Fatal("expected error for negative task")
	}
	if _, _, err := m.Predict(0, []float64{0.5, 0.5}); err == nil {
		t.Fatal("expected error for wrong input dimension")
	}
}
