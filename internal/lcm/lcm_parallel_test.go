package lcm

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"gptunecrowd/internal/parallel"
)

func twoTaskFixture(n1, n2 int, seed int64) ([][][]float64, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	mk := func(n int, scale float64) ([][]float64, []float64) {
		X := make([][]float64, n)
		Y := make([]float64, n)
		for i := range X {
			x := rng.Float64()
			X[i] = []float64{x}
			Y[i] = scale*math.Sin(2*math.Pi*x) + 0.05*rng.NormFloat64()
		}
		return X, Y
	}
	X1, Y1 := mk(n1, 1)
	X2, Y2 := mk(n2, 1.6)
	return [][][]float64{X1, X2}, [][]float64{Y1, Y2}
}

// Fixed seed ⇒ bit-identical fitted model whether the fit runs on 1,
// 4 or 8 workers: restarts, covariance assembly and gradient reductions
// all write index-disjoint state with ordered reductions.
func TestLCMFitDeterministicAcrossWorkers(t *testing.T) {
	X, Y := twoTaskFixture(20, 6, 31)
	fit := func(workers int) *Model {
		t.Setenv(parallel.EnvWorkers, strconv.Itoa(workers))
		m, err := Fit(X, Y, Options{Seed: 3, Restarts: 3, MaxIter: 15})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ref := fit(1)
	probe := [][]float64{{0.1}, {0.45}, {0.8}}
	for _, w := range []int{2, 4, 8} {
		m := fit(w)
		for q := range ref.hyper {
			for d := range ref.hyper[q].LogLength {
				if m.hyper[q].LogLength[d] != ref.hyper[q].LogLength[d] {
					t.Fatalf("workers=%d: logLen[%d][%d] differs", w, q, d)
				}
			}
			for ti := range ref.aq[q] {
				if m.aq[q][ti] != ref.aq[q][ti] || m.logKappa[q][ti] != ref.logKappa[q][ti] {
					t.Fatalf("workers=%d: coregionalization params differ", w)
				}
			}
		}
		for ti := range ref.logNoise {
			if m.logNoise[ti] != ref.logNoise[ti] {
				t.Fatalf("workers=%d: noise differs", w)
			}
		}
		for task := 0; task < 2; task++ {
			for _, x := range probe {
				m1, s1, _ := ref.Predict(task, x)
				m2, s2, _ := m.Predict(task, x)
				if m1 != m2 || s1 != s2 {
					t.Fatalf("workers=%d task %d: prediction differs", w, task)
				}
			}
		}
		if ref.TaskCorrelation(0, 1) != m.TaskCorrelation(0, 1) {
			t.Fatalf("workers=%d: task correlation differs", w)
		}
	}
}
