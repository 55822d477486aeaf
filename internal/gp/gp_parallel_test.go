package gp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func fitFixture(n, dim int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	Y := make([]float64, n)
	for i := range X {
		x := make([]float64, dim)
		for d := range x {
			x[d] = rng.Float64()
		}
		X[i] = x
		Y[i] = x[0]*x[0] + math.Sin(3*x[dim-1]) + 0.05*rng.NormFloat64()
	}
	return X, Y
}

// The determinism guarantee of the parallel engine: at a fixed seed the
// fitted hyperparameters and predictions are bit-identical whether the
// fit runs on 1, 4 or 8 workers.
func TestFitDeterministicAcrossWorkers(t *testing.T) {
	X, Y := fitFixture(40, 3, 21)
	ref, err := Fit(X, Y, Options{Seed: 5, Restarts: 4, MaxIter: 25, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		g, err := Fit(X, Y, Options{Seed: 5, Restarts: 4, MaxIter: 25, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if g.NLL() != ref.NLL() {
			t.Fatalf("workers=%d: NLL %v vs %v", w, g.NLL(), ref.NLL())
		}
		for d, v := range g.Hyper().LogLength {
			if v != ref.Hyper().LogLength[d] {
				t.Fatalf("workers=%d: LogLength[%d] %v vs %v", w, d, v, ref.Hyper().LogLength[d])
			}
		}
		if g.Hyper().LogVar != ref.Hyper().LogVar || g.NoiseVar() != ref.NoiseVar() {
			t.Fatalf("workers=%d: variance params differ", w)
		}
		x := []float64{0.31, 0.62, 0.93}
		m1, s1 := ref.Predict(x)
		m2, s2 := g.Predict(x)
		if m1 != m2 || s1 != s2 {
			t.Fatalf("workers=%d: prediction differs: (%v,%v) vs (%v,%v)", w, m1, s1, m2, s2)
		}
	}
}

func TestPredictBatchWorkersBitIdentical(t *testing.T) {
	X, Y := fitFixture(30, 2, 9)
	g, err := Fit(X, Y, Options{Seed: 1, Restarts: 1, MaxIter: 15})
	if err != nil {
		t.Fatal(err)
	}
	P, _ := fitFixture(64, 2, 10)
	batch := func(workers int) (means, stds []float64) {
		means, stds = make([]float64, len(P)), make([]float64, len(P))
		g.PredictBatchInto(P, means, stds, workers)
		return means, stds
	}
	refM, refS := batch(1)
	for _, w := range []int{2, 8} {
		m, s := batch(w)
		for i := range refM {
			if m[i] != refM[i] || s[i] != refS[i] {
				t.Fatalf("workers=%d: point %d differs", w, i)
			}
		}
	}
}

// Predict must be callable from many goroutines at once (the parallel
// acquisition search depends on it); the race detector patrols this.
func TestPredictConcurrentSafe(t *testing.T) {
	X, Y := fitFixture(25, 2, 13)
	g, err := Fit(X, Y, Options{Seed: 2, Restarts: 1, MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := g.Predict([]float64{0.5, 0.5})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m, s := g.Predict([]float64{0.5, 0.5})
				if m != want || s <= 0 {
					panic("concurrent Predict diverged")
				}
				g.PredictMean([]float64{0.1, 0.9})
			}
		}()
	}
	wg.Wait()
}
