package tla

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"gptunecrowd/internal/core"
)

func TestSourceSubsampleKeepsBest(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X := make([][]float64, 50)
	Y := make([]float64, 50)
	for i := range X {
		X[i] = []float64{rng.Float64()}
		Y[i] = rng.Float64() + 1
	}
	Y[33] = 0.1 // global best
	s := NewSource("s", X, Y)
	sub := s.Subsample(10, rng)
	if sub.Len() != 10 {
		t.Fatalf("subsample size %d", sub.Len())
	}
	found := false
	for _, y := range sub.Y {
		if y == 0.1 {
			found = true
		}
	}
	if !found {
		t.Fatal("subsample lost the source optimum")
	}
	// No-op when already small enough.
	if s.Subsample(100, rng) != s {
		t.Fatal("subsample should be identity when n >= len")
	}
}

func TestNormalizeWeights(t *testing.T) {
	w := []float64{2, 2}
	if !normalizeWeights(w) || w[0] != 0.5 {
		t.Fatalf("normalize = %v", w)
	}
	z := []float64{0, 0}
	if normalizeWeights(z) {
		t.Fatal("zero weights should fail normalization")
	}
}

func TestWeightedSurrogateCombination(t *testing.T) {
	a := core.SurrogateFunc(func(x []float64) (float64, float64) { return 2, 1 })
	b := core.SurrogateFunc(func(x []float64) (float64, float64) { return 4, 4 })
	ws := &weightedSurrogate{models: []core.Predictor{a, b}, weights: []float64{0.5, 0.5}}
	mean, std := ws.Predict([]float64{0})
	if mean != 3 {
		t.Fatalf("mean = %v", mean)
	}
	if math.Abs(std-2) > 1e-12 { // geometric mean of 1 and 4
		t.Fatalf("std = %v", std)
	}
}

// TestCappedSourcesRoundTrip: the subsample rides checkpoints as index
// sets, and checkpoints are untrusted.
func TestCappedSourcesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mk := func(name string, n int) *Source {
		X, Y := make([][]float64, n), make([]float64, n)
		for i := range X {
			X[i], Y[i] = []float64{rng.Float64()}, rng.Float64()
		}
		return NewSource(name, X, Y)
	}
	sources := []*Source{mk("big", 30), mk("small", 5)}
	capped := CapSources(sources, 10, rng)
	if capped.Views[0].Len() != 10 || capped.Views[1] != sources[1] {
		t.Fatalf("capped to %d and %d samples", capped.Views[0].Len(), capped.Views[1].Len())
	}
	data, err := json.Marshal(capped)
	if err != nil {
		t.Fatal(err)
	}
	back, err := RestoreCappedSources(sources, data)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range capped.Views {
		if back.Views[i].Len() != v.Len() || back.Views[i].Y[0] != v.Y[0] {
			t.Fatalf("source %d restored differently", i)
		}
	}
	if none, err := RestoreCappedSources(sources, []byte("null")); none != nil || err != nil {
		t.Fatalf("null restored to %v, %v", none, err)
	}
	for _, bad := range []string{`[[0,1]]`, `[[0,30],null]`, `[[-1],null]`, `{`} {
		if _, err := RestoreCappedSources(sources, []byte(bad)); err == nil {
			t.Fatalf("index sets %s accepted", bad)
		}
	}
}

func TestMultitaskPSStateBounds(t *testing.T) {
	src := NewSource("s", [][]float64{{0.1}, {0.9}}, []float64{1, 2})
	m := NewMultitaskPS([]*Source{src}, nil)
	if err := m.Fit(nil, nil); err == nil {
		t.Fatal("fit before BindSearch should fail")
	}
	if err := m.Observe([]float64{0.5}, 1); err == nil {
		t.Fatal("Observe before Fit should fail")
	}
	good := `{"x":[[[0.5],[0.7]]],"y":[[1,2]]}`
	if err := m.RestoreState([]byte(good)); err != nil {
		t.Fatal(err)
	}
	if data, err := m.StateCheckpoint(); err != nil || string(data) != good {
		t.Fatalf("checkpointed %s, %v", data, err)
	}
	for _, bad := range []string{`{"x":[[[0.5]],[[0.5]]],"y":[[1],[1]]}`, `{"x":[[[0.5]]],"y":[[1,2]]}`, `{`} {
		if err := m.RestoreState([]byte(bad)); err == nil {
			t.Fatalf("state %s accepted", bad)
		}
	}
}
