package surrogate

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gptunecrowd/internal/apps/synth"
	"gptunecrowd/internal/core"
	"gptunecrowd/internal/tla"
)

// demoSource samples the demo function at task tv as a source dataset.
func demoSource(t *testing.T, tv float64, n int, seed int64) *tla.Source {
	t.Helper()
	X, Y, err := synth.CollectSamples(synth.DemoProblem(), map[string]interface{}{"t": tv}, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return tla.NewSource(fmt.Sprintf("t=%v", tv), X, Y)
}

// demoSetup is the paper's Fig. 3(a) scenario: source task t=0.8,
// target task t=1.0.
func demoSetup(t *testing.T, nSrc int, seed int64) (*core.Problem, map[string]interface{}, []*tla.Source) {
	t.Helper()
	return synth.DemoProblem(), map[string]interface{}{"t": 1.0}, []*tla.Source{demoSource(t, 0.8, nSrc, seed)}
}

func runProposer(t *testing.T, p *core.Problem, task map[string]interface{}, prop core.Proposer, budget int, seed int64) *core.History {
	t.Helper()
	h, err := core.RunLoop(p, task, prop, core.SessionOptions{Budget: budget, Seed: seed,
		Search: core.SearchOptions{Candidates: 128, DEGens: 15}})
	if err != nil {
		t.Fatalf("%s: %v", prop.Name(), err)
	}
	return h
}

func bestY(t *testing.T, h *core.History) float64 {
	t.Helper()
	b, ok := h.Best()
	if !ok {
		t.Fatal("run found nothing")
	}
	return b.Y
}

func TestKindValidation(t *testing.T) {
	if _, err := New("nonsense", Config{Dim: 1}); err == nil {
		t.Fatal("New with unknown kind should fail")
	}
	if _, err := New(KindAuto, Config{Dim: 1}); err == nil {
		t.Fatal("auto is a tuner, not a model kind")
	}
	for _, kind := range modelKinds {
		_, err := New(kind, Config{Dim: 1})
		switch kind {
		case KindGP, KindCopula, KindSGP:
			if err != nil {
				t.Fatalf("%s without sources: %v", kind, err)
			}
		default:
			if !errors.Is(err, tla.ErrNoSources) {
				t.Fatalf("%s without sources: %v, want ErrNoSources", kind, err)
			}
		}
	}
}

func TestAdaptersSatisfyLifecycle(t *testing.T) {
	_, _, sources := demoSetup(t, 40, 1)
	rng := rand.New(rand.NewSource(2))
	X := make([][]float64, 12)
	Y := make([]float64, 12)
	for i := range X {
		X[i] = []float64{rng.Float64()}
		Y[i] = synth.Demo(1.0, X[i][0])
	}
	for _, kind := range modelKinds {
		s, err := New(kind, Config{Dim: 1, Sources: sources})
		if err != nil {
			t.Fatal(err)
		}
		if b, ok := s.(searchBinder); ok {
			b.BindSearch(synth.DemoProblem().ParamSpace, core.SearchOptions{Candidates: 32, DEGens: 3})
		}
		if s.Name() != kind {
			t.Fatalf("Name = %q, want %q", s.Name(), kind)
		}
		// Unfitted adapters answer a harmless prior instead of crashing.
		if kind != KindLCM && kind != KindCopula {
			if mean, std := s.Predict(X[0]); mean != 0 || std != 1 {
				t.Fatalf("%s unfitted prior = (%v, %v)", kind, mean, std)
			}
		}
		if err := s.Fit(X, Y); err != nil {
			t.Fatalf("%s fit: %v", kind, err)
		}
		mean, std := s.Predict([]float64{0.5})
		if math.IsNaN(mean) || std <= 0 {
			t.Fatalf("%s posterior = (%v, %v)", kind, mean, std)
		}
		means := make([]float64, len(X))
		stds := make([]float64, len(X))
		s.PredictBatchInto(X, means, stds, 2)
		for i, x := range X {
			m2, s2 := s.Predict(x)
			if means[i] != m2 || stds[i] != s2 {
				t.Fatalf("%s batch diverges from pointwise at %d", kind, i)
			}
		}
		if err := s.Observe([]float64{0.3}, synth.Demo(1.0, 0.3)); err != nil {
			t.Fatalf("%s observe: %v", kind, err)
		}
		if c := s.Cost(1000); c <= 0 || c != s.Cost(1000) {
			t.Fatalf("%s cost not positive-deterministic: %v", kind, c)
		}
	}
}

func TestObserveBeforeFitErrors(t *testing.T) {
	_, _, sources := demoSetup(t, 10, 3)
	for _, kind := range modelKinds {
		if kind == KindCopula {
			continue // observes into its source-only prior
		}
		s, err := New(kind, Config{Dim: 1, Sources: sources})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Observe([]float64{0.5}, 1); err == nil {
			t.Fatalf("%s Observe before Fit should fail", kind)
		}
	}
}

// TestCheapArmsAreCheaper pins the cost-model ordering the bandit
// relies on: at crowd scale the copula and sparse-GP estimates must
// undercut the cubic GP/LCM estimates by a wide margin.
func TestCheapArmsAreCheaper(t *testing.T) {
	_, _, sources := demoSetup(t, 60, 4)
	cfg := Config{Dim: 1, Sources: sources}
	mk := func(kind string) core.Surrogate {
		s, err := New(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	gpArm, lcmArm, copArm, sgpArm := mk(KindGP), mk(KindLCM), mk(KindCopula), mk(KindSGP)
	const n = 10000
	for _, cheap := range []core.Surrogate{copArm, sgpArm} {
		if gpArm.Cost(n) < 10*cheap.Cost(n) {
			t.Fatalf("gp cost %v not >= 10x %s cost %v", gpArm.Cost(n), cheap.Name(), cheap.Cost(n))
		}
		if lcmArm.Cost(n) < 10*cheap.Cost(n) {
			t.Fatalf("lcm cost %v not >= 10x %s cost %v", lcmArm.Cost(n), cheap.Name(), cheap.Cost(n))
		}
	}
}
