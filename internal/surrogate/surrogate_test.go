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
	const n = 10000
	for _, cheap := range []string{KindCopula, KindSGP} {
		c := armCost(cheap, cfg, n)
		for _, cubic := range []string{KindGP, KindLCM} {
			if armCost(cubic, cfg, n) < 10*c {
				t.Fatalf("%s cost %v not >= 10x %s cost %v", cubic, armCost(cubic, cfg, n), cheap, c)
			}
		}
	}
}

// TestArmCostMonotone holds every arm the auto row prices to a
// positive, deterministic estimate that grows with the sample count,
// and the model-free space arm to zero.
func TestArmCostMonotone(t *testing.T) {
	_, _, sources := demoSetup(t, 50, 7)
	cfg := Config{Dim: 3, Sources: sources}
	for _, kind := range []string{KindGP, KindLCM, KindCopula, KindSGP} {
		prev := 0.0
		for _, n := range []int{1, 10, 100, 1000, 10000} {
			c := armCost(kind, cfg, n)
			if c <= prev {
				t.Fatalf("%s: cost(%d) = %v not increasing past %v", kind, n, c, prev)
			}
			prev = c
		}
		if armCost(kind, cfg, 500) != armCost(kind, cfg, 500) {
			t.Fatalf("%s: cost is not deterministic", kind)
		}
	}
	if c := armCost(armSpace, cfg, 1000); c != 0 {
		t.Fatalf("space arm costs %v, want 0", c)
	}
}

// BenchmarkFitCrowdScale times one fit of each kind at crowd scale:
// three 1200-row source tasks and a 10 000-row target history. The
// cubic kinds (gp, lcm) are fed the 200-row subsample they would
// realistically get; the cheap-transfer kinds (copula, sgp) ingest all
// of it. The copula and sgp times against the lcm time are the
// few-shot fit-speed claim README and DESIGN.md quote.
func BenchmarkFitCrowdScale(b *testing.B) {
	p, rng := synth.DemoProblem(), rand.New(rand.NewSource(9))
	collect := func(tv float64, n int) ([][]float64, []float64) {
		X, Y, err := synth.CollectSamples(p, map[string]interface{}{"t": tv}, n, rng)
		if err != nil {
			b.Fatal(err)
		}
		return X, Y
	}
	var sources []*tla.Source
	for _, tv := range []float64{0.6, 0.8, 0.9} {
		X, Y := collect(tv, 1200)
		sources = append(sources, tla.NewSource(fmt.Sprintf("t=%.1f", tv), X, Y))
	}
	X, Y := collect(1.0, 10000)
	for _, kind := range []string{KindLCM, KindGP, KindCopula, KindSGP} {
		rows := len(X)
		if kind == KindGP || kind == KindLCM {
			rows = 200
		}
		b.Run(kind, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := New(kind, Config{Dim: 1, Sources: sources})
				if err != nil {
					b.Fatal(err)
				}
				if ss, ok := s.(seedSetter); ok {
					ss.SetSeed(9)
				}
				if err := s.Fit(X[:rows], Y[:rows]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
