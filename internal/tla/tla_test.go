package tla

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gptunecrowd/internal/apps/synth"
	"gptunecrowd/internal/core"
)

// demoSetup builds the paper's Fig. 3(a) scenario: source task t=0.8
// with random samples, target task t=1.0.
func demoSetup(t *testing.T, nSrc int, seed int64) (*core.Problem, map[string]interface{}, []*Source) {
	t.Helper()
	p := synth.DemoProblem()
	rng := rand.New(rand.NewSource(seed))
	X, Y, err := synth.CollectSamples(p, map[string]interface{}{"t": 0.8}, nSrc, rng)
	if err != nil {
		t.Fatal(err)
	}
	return p, map[string]interface{}{"t": 1.0}, []*Source{NewSource("t=0.8", X, Y)}
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

func TestAllProposersRunAndImprove(t *testing.T) {
	p, task, sources := demoSetup(t, 60, 2)
	// Random-search reference over the same budget.
	rng := rand.New(rand.NewSource(3))
	worst := 0.0
	for i := 0; i < 200; i++ {
		u := core.RandomPoint(p.ParamSpace, rng)
		y, _ := p.Evaluator.Evaluate(task, p.ParamSpace.Decode(u))
		worst += y
	}
	meanRandom := worst / 200

	proposers := []core.Proposer{
		NewWeightedSumEqual(sources),
		NewWeightedSumDynamic(sources),
		NewMultitaskTS(sources),
		NewMultitaskPS(sources),
		NewStacking(sources),
		NewEnsemble(sources, EnsembleProposed),
		NewEnsemble(sources, EnsembleToggling),
		NewEnsemble(sources, EnsembleProb),
	}
	for _, prop := range proposers {
		h := runTuner(t, p, task, prop, 8, 4)
		best := finalBest(h)
		if math.IsInf(best, 1) {
			t.Fatalf("%s found nothing", prop.Name())
		}
		// Every tuner should comfortably beat the random mean.
		if best > meanRandom {
			t.Fatalf("%s best %v worse than random mean %v", prop.Name(), best, meanRandom)
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
		hT := runTuner(t, p, task, NewEnsemble(sources, EnsembleProposed), budget, int64(10+r))
		hN := runTuner(t, p, task, core.NewGPTuner(), budget, int64(10+r))
		tlaSum += finalBest(hT)
		noSum += finalBest(hN)
	}
	if tlaSum/repeats > noSum/repeats+0.15 {
		t.Fatalf("TLA (%v) clearly worse than NoTLA (%v) at budget %d", tlaSum/repeats, noSum/repeats, budget)
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

func TestExplorationRateEq4(t *testing.T) {
	// Eq. 4: rate = (|T|·p/n) / (1 + |T|·p/n).
	if r := explorationRate(3, 2, 6); math.Abs(r-0.5) > 1e-12 {
		t.Fatalf("rate = %v, want 0.5", r)
	}
	if r := explorationRate(3, 2, 0); r != 1 {
		t.Fatalf("rate with no samples = %v", r)
	}
	// Monotone decreasing in n.
	if explorationRate(3, 5, 10) <= explorationRate(3, 5, 100) {
		t.Fatal("rate should fall as samples accumulate")
	}
}

func TestEnsembleTogglingCycles(t *testing.T) {
	p, task, sources := demoSetup(t, 40, 7)
	e := NewEnsemble(sources, EnsembleToggling)
	runTuner(t, p, task, e, 6, 8)
	counts := e.ChosenCounts()
	for name, c := range counts {
		if c != 2 {
			t.Fatalf("toggling uneven: %s chosen %d times (%v)", name, c, counts)
		}
	}
}

func TestEnsembleCreditsBestOutputs(t *testing.T) {
	p, task, sources := demoSetup(t, 40, 9)
	e := NewEnsemble(sources, EnsembleProposed)
	h := runTuner(t, p, task, e, 6, 10)
	// After the run, the minimum over per-algorithm bests must equal the
	// run best.
	e.credit(h)
	min := math.Inf(1)
	for _, v := range e.bestOut {
		if v < min {
			min = v
		}
	}
	if b := finalBest(h); math.Abs(min-b) > 1e-12 {
		t.Fatalf("credited min %v != run best %v", min, b)
	}
}

func TestProposersRequireSources(t *testing.T) {
	ctx := &core.ProposeContext{}
	for _, prop := range []core.Proposer{
		NewWeightedSumEqual(nil),
		NewMultitaskTS(nil),
		NewMultitaskPS(nil),
		NewStacking(nil),
	} {
		if _, err := prop.Propose(ctx); err == nil {
			t.Fatalf("%s should fail without sources", prop.Name())
		}
	}
}

func TestProposerNames(t *testing.T) {
	srcs := []*Source{NewSource("s", [][]float64{{0}}, []float64{1})}
	cases := map[string]core.Proposer{
		"Multitask(TS)":        NewMultitaskTS(srcs),
		"Multitask(PS)":        NewMultitaskPS(srcs),
		"WeightedSum(equal)":   NewWeightedSumEqual(srcs),
		"WeightedSum(dynamic)": NewWeightedSumDynamic(srcs),
		"Stacking":             NewStacking(srcs),
		"Ensemble(proposed)":   NewEnsemble(srcs, EnsembleProposed),
		"Ensemble(toggling)":   NewEnsemble(srcs, EnsembleToggling),
		"Ensemble(prob)":       NewEnsemble(srcs, EnsembleProb),
	}
	for want, prop := range cases {
		if prop.Name() != want {
			t.Fatalf("name = %q, want %q", prop.Name(), want)
		}
	}
	ws := &WeightedSum{StaticWeights: []float64{1, 2}}
	if ws.Name() != "WeightedSum(static)" {
		t.Fatal("static name wrong")
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
	sources := []*Source{NewSource("same-task", X, Y)}
	// True optimum estimate by dense scan.
	trueBest := math.Inf(1)
	for i := 0; i < 2000; i++ {
		y := synth.Demo(1.0, float64(i)/2000)
		if y < trueBest {
			trueBest = y
		}
	}
	h := runTuner(t, p, task, NewMultitaskTS(sources), 5, 12)
	if got := finalBest(h); got > trueBest+0.3 {
		t.Fatalf("Multitask(TS) best %v far from optimum %v", got, trueBest)
	}
}

func TestWeightedSumStaticWeights(t *testing.T) {
	p, task, sources := demoSetup(t, 30, 21)
	ws := &WeightedSum{Sources: sources, StaticWeights: []float64{3, 1}}
	if ws.Name() != "WeightedSum(static)" {
		t.Fatal("name")
	}
	h := runTuner(t, p, task, ws, 5, 22)
	if _, ok := h.Best(); !ok {
		t.Fatal("static-weight run found nothing")
	}
}

func TestWeightedSumDynamicDegradesGracefully(t *testing.T) {
	// With a single target sample, the dynamic solve has no rows and
	// must fall back to equal weights without erroring.
	p, task, sources := demoSetup(t, 20, 23)
	ws := NewWeightedSumDynamic(sources)
	h := runTuner(t, p, task, ws, 2, 24)
	if h.NumOK() != 2 {
		t.Fatal("short run failed")
	}
}

func TestEnsemblePoolFallbackOnError(t *testing.T) {
	// A pool member that always errors must not kill the run.
	p, task, sources := demoSetup(t, 20, 25)
	e := NewEnsemble(sources, EnsembleToggling)
	e.Pool[0] = failingProposer{}
	h := runTuner(t, p, task, e, 4, 26)
	if h.NumOK() == 0 {
		t.Fatal("fallback did not rescue the run")
	}
}

type failingProposer struct{}

func (failingProposer) Name() string { return "Failing" }
func (failingProposer) Propose(*core.ProposeContext) ([]float64, error) {
	return nil, errSentinel
}

var errSentinel = fmt.Errorf("deliberate failure")
