package tla_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gptunecrowd/internal/apps/synth"
	"gptunecrowd/internal/core"
	"gptunecrowd/internal/surrogate"
	"gptunecrowd/internal/tla"
)

// The Table I models are run by the surrogate driver, so these tests —
// what the paper claims of the tuners built from them — reach them by
// name through surrogate.NewProposer.

func demoSource(t *testing.T, tv float64, n int, seed int64) *tla.Source {
	t.Helper()
	X, Y, err := synth.CollectSamples(synth.DemoProblem(), map[string]interface{}{"t": tv}, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return tla.NewSource(fmt.Sprintf("t=%v", tv), X, Y)
}

// demoSetup builds the paper's Fig. 3(a) scenario: source task t=0.8
// with random samples, target task t=1.0.
func demoSetup(t *testing.T, nSrc int, seed int64) (*core.Problem, map[string]interface{}, []*tla.Source) {
	t.Helper()
	return synth.DemoProblem(), map[string]interface{}{"t": 1.0}, []*tla.Source{demoSource(t, 0.8, nSrc, seed)}
}

func tuner(t *testing.T, name string, sources []*tla.Source) core.Proposer {
	t.Helper()
	prop, err := surrogate.NewProposer(name, surrogate.PoolConfig{Config: surrogate.Config{Sources: sources}})
	if err != nil {
		t.Fatal(err)
	}
	return prop
}

// sourceFed lists the tuners that exist only over source tasks: the
// Table I lineup plus the bare LCM.
func sourceFed() []string {
	return append(slices.DeleteFunc(surrogate.Algorithms(), func(n string) bool { return n == "NoTLA" }), surrogate.KindLCM)
}

func runTuner(t *testing.T, p *core.Problem, task map[string]interface{}, prop core.Proposer, budget int, seed int64) *core.History {
	t.Helper()
	h, err := core.RunLoop(p, task, prop, core.SessionOptions{Budget: budget, Seed: seed,
		Search: core.SearchOptions{Candidates: 128, DEGens: 15}})
	if err != nil {
		t.Fatalf("%s: %v", prop.Name(), err)
	}
	if h.Len() != budget {
		t.Fatalf("%s consumed %d of %d budget", prop.Name(), h.Len(), budget)
	}
	return h
}

func finalBest(h *core.History) float64 {
	b, ok := h.Best()
	if !ok {
		return math.Inf(1)
	}
	return b.Y
}

func TestAllProposersRunAndImprove(t *testing.T) {
	p, task, sources := demoSetup(t, 60, 2)
	sources = append(sources, demoSource(t, 1.2, 40, 1)) // a second, smaller source: stacks second
	// Random-search reference over the same budget.
	rng := rand.New(rand.NewSource(3))
	worst := 0.0
	for i := 0; i < 200; i++ {
		u := core.RandomPoint(p.ParamSpace, rng)
		y, _ := p.Evaluator.Evaluate(task, p.ParamSpace.Decode(u))
		worst += y
	}
	meanRandom := worst / 200

	for _, name := range sourceFed() {
		h := runTuner(t, p, task, tuner(t, name, sources), 8, 4)
		best := finalBest(h)
		if math.IsInf(best, 1) {
			t.Fatalf("%s found nothing", name)
		}
		// Every tuner should comfortably beat the random mean.
		if best > meanRandom {
			t.Fatalf("%s best %v worse than random mean %v", name, best, meanRandom)
		}
	}
}

func TestTLABeatsNoTLAAtSmallBudget(t *testing.T) {
	// The paper's headline qualitative claim: with few evaluations and a
	// correlated source, TLA outperforms NoTLA on average.
	p, task, sources := demoSetup(t, 100, 5)
	var tlaSum, noSum float64
	const repeats = 3
	const budget = 5
	for r := 0; r < repeats; r++ {
		hT := runTuner(t, p, task, tuner(t, "Ensemble(proposed)", sources), budget, int64(10+r))
		hN := runTuner(t, p, task, tuner(t, "NoTLA", nil), budget, int64(10+r))
		tlaSum += finalBest(hT)
		noSum += finalBest(hN)
	}
	if tlaSum/repeats > noSum/repeats+0.15 {
		t.Fatalf("TLA (%v) clearly worse than NoTLA (%v) at budget %d", tlaSum/repeats, noSum/repeats, budget)
	}
}

func TestEnsembleTogglingCycles(t *testing.T) {
	p, task, sources := demoSetup(t, 40, 7)
	e := tuner(t, "Ensemble(toggling)", sources).(*surrogate.Pool)
	runTuner(t, p, task, e, 7, 8) // the source mix answers the first evaluation
	counts := e.SelectedCounts()
	if len(counts) != 3 {
		t.Fatalf("toggling over %v, want three arms", counts)
	}
	for name, c := range counts {
		if c != 2 {
			t.Fatalf("toggling uneven: %s chosen %d times (%v)", name, c, counts)
		}
	}
}

func TestProposersRequireSources(t *testing.T) {
	for _, name := range sourceFed() {
		if _, err := surrogate.NewProposer(name, surrogate.PoolConfig{}); err == nil {
			t.Fatalf("%s should fail without sources", name)
		}
	}
}

func TestProposerNames(t *testing.T) {
	srcs := []*tla.Source{tla.NewSource("s", [][]float64{{0}}, []float64{1})}
	for _, want := range surrogate.Algorithms() {
		if got := tuner(t, want, srcs).Name(); got != want {
			t.Fatalf("name = %q, want %q", got, want)
		}
	}
	if _, err := surrogate.NewProposer("WeightedSum(static)", surrogate.PoolConfig{Config: surrogate.Config{Sources: srcs}}); err == nil {
		t.Fatal("WeightedSum(static) is HiPerBOt's original, not a tuner here")
	}
}

func TestMultitaskTSTransfersKnowledge(t *testing.T) {
	// With a strongly correlated source (identical task), Multitask(TS)
	// should find a near-optimal point within very few evaluations.
	p := synth.DemoProblem()
	rng := rand.New(rand.NewSource(11))
	task := map[string]interface{}{"t": 1.0}
	X, Y, err := synth.CollectSamples(p, task, 80, rng)
	if err != nil {
		t.Fatal(err)
	}
	sources := []*tla.Source{tla.NewSource("same-task", X, Y)}
	// True optimum estimate by dense scan.
	trueBest := math.Inf(1)
	for i := 0; i < 2000; i++ {
		y := synth.Demo(1.0, float64(i)/2000)
		if y < trueBest {
			trueBest = y
		}
	}
	h := runTuner(t, p, task, tuner(t, "Multitask(TS)", sources), 5, 12)
	if got := finalBest(h); got > trueBest+0.3 {
		t.Fatalf("Multitask(TS) best %v far from optimum %v", got, trueBest)
	}
}

func TestWeightedSumDynamicDegradesGracefully(t *testing.T) {
	// With a single target sample, the dynamic solve has no rows and
	// must fall back to equal weights without erroring.
	p, task, sources := demoSetup(t, 20, 23)
	h := runTuner(t, p, task, tuner(t, "WeightedSum(dynamic)", sources), 2, 24)
	if h.NumOK() != 2 {
		t.Fatal("short run failed")
	}
}

// The LCM-backed model's batch path is its pointwise path, bit for bit.
func TestTrueSampleLCMPredictBatchMatchesPredict(t *testing.T) {
	src := demoSource(t, 0.8, 30, 3)
	tgt := demoSource(t, 1.0, 6, 4)
	m := tla.NewTrueSampleLCM([]*tla.Source{src}, 30, nil)
	m.SetSeed(5)
	if err := m.Fit(tgt.X, tgt.Y); err != nil {
		t.Fatal(err)
	}
	probe := demoSource(t, 1.0, 16, 6).X
	means, stds := make([]float64, len(probe)), make([]float64, len(probe))
	m.PredictBatchInto(probe, means, stds, 0)
	for i, x := range probe {
		if mu, sd := m.Predict(x); mu != means[i] || sd != stds[i] {
			t.Fatalf("point %d: Predict (%v, %v), batch (%v, %v)", i, mu, sd, means[i], stds[i])
		}
	}
}
