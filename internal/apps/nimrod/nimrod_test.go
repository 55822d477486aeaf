package nimrod

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"gptunecrowd/internal/core"
	"gptunecrowd/internal/machine"
	"gptunecrowd/internal/surrogate"
)

func task(mx, my, lphi int) map[string]interface{} {
	return map[string]interface{}{"mx": mx, "my": my, "lphi": lphi}
}

func params(nsup, nrel, nbx, nby, npz int) map[string]interface{} {
	return map[string]interface{}{"NSUP": nsup, "NREL": nrel, "nbx": nbx, "nby": nby, "npz": npz}
}

func TestBaselineScenarioRuns(t *testing.T) {
	// The paper's source task: {mx:5, my:7, lphi:1} on 32 Haswell nodes.
	a := New(machine.CoriHaswell(32))
	y, err := a.Evaluate(task(5, 7, 1), params(128, 20, 1, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if y <= 0 || math.IsNaN(y) {
		t.Fatalf("runtime = %v", y)
	}
}

func TestLargerTaskSlower(t *testing.T) {
	a := New(machine.CoriHaswell(64))
	a.NoiseSigma = 0
	small, err := a.Evaluate(task(5, 7, 1), params(128, 20, 1, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	big, err := a.Evaluate(task(6, 8, 1), params(128, 20, 1, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if big <= small {
		t.Fatalf("bigger mesh should be slower: %v vs %v", small, big)
	}
}

func TestOOMFailureMode(t *testing.T) {
	// The big Fig. 5(c) task on too few nodes with fill-heavy parameters
	// must fail with an out-of-memory error.
	a := New(machine.CoriHaswell(4))
	_, err := a.Evaluate(task(6, 9, 3), params(290, 20, 1, 1, 4))
	if err == nil {
		t.Fatal("expected OOM failure")
	}
	if !strings.Contains(err.Error(), "out of memory") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Frugal parameters (small supernodes, no z-replication) on a large
	// allocation must fit.
	big := New(machine.CoriHaswell(64))
	if _, err := big.Evaluate(task(6, 9, 3), params(100, 20, 1, 1, 0)); err != nil {
		t.Fatalf("frugal config on 64 nodes should fit: %v", err)
	}
}

func TestSomeConfigsFailOnTargetScenario(t *testing.T) {
	// Fig. 5(c): {mx:6, my:8} on 64 Haswell nodes has failure-prone
	// corners of the parameter space but is mostly feasible.
	a := New(machine.CoriHaswell(64))
	sp := a.ParamSpace()
	rng := rand.New(rand.NewSource(1))
	fails := 0
	for i := 0; i < 300; i++ {
		u := core.RandomPoint(sp, rng)
		if _, err := a.Evaluate(task(6, 8, 1), sp.Decode(u)); err != nil {
			fails++
		}
	}
	if fails == 0 {
		t.Fatal("expected some OOM failures on the large task")
	}
	if fails > 150 {
		t.Fatalf("too many failures (%d/300): task should be mostly feasible", fails)
	}
}

func TestNpzTradeoff(t *testing.T) {
	a := New(machine.CoriHaswell(32))
	a.NoiseSigma = 0
	y0, err := a.Evaluate(task(5, 7, 1), params(128, 20, 1, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	y2, err := a.Evaluate(task(5, 7, 1), params(128, 20, 1, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if y2 >= y0 {
		t.Fatalf("moderate z-parallelism should help: npz0=%v npz2=%v", y0, y2)
	}
}

func TestArchitectureChangesBlockingOptimum(t *testing.T) {
	// The assembly-tile sweet spot differs between Haswell and KNL,
	// giving Fig. 5(b) its "transfer across architectures" character.
	hsw := New(machine.CoriHaswell(32))
	knl := New(machine.CoriKNL(32))
	hsw.NoiseSigma, knl.NoiseSigma = 0, 0
	ratio := func(a *App) float64 {
		y11, err := a.Evaluate(task(5, 4, 1), params(128, 20, 1, 1, 2))
		if err != nil {
			t.Fatal(err)
		}
		y22, err := a.Evaluate(task(5, 4, 1), params(128, 20, 2, 2, 2))
		if err != nil {
			t.Fatal(err)
		}
		return y22 / y11
	}
	if math.Abs(ratio(hsw)-ratio(knl)) < 1e-6 {
		t.Fatal("architectures should value blocking differently")
	}
}

func TestValidation(t *testing.T) {
	a := New(machine.CoriHaswell(8))
	if _, err := a.Evaluate(map[string]interface{}{"mx": 5}, params(100, 20, 1, 1, 1)); err == nil {
		t.Fatal("expected task validation error")
	}
	if _, err := a.Evaluate(task(5, 7, 1), map[string]interface{}{"NSUP": 100}); err == nil {
		t.Fatal("expected param validation error")
	}
}

func TestProblemIntegrationWithFailures(t *testing.T) {
	a := New(machine.CoriHaswell(64))
	p := a.Problem()
	tuner, err := surrogate.NewProposer("NoTLA", surrogate.PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.RunLoop(p, task(6, 8, 1), tuner,
		core.SessionOptions{Budget: 8, Seed: 2, Search: core.SearchOptions{Candidates: 64, DEGens: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 8 {
		t.Fatal("budget not consumed")
	}
	if _, ok := h.Best(); !ok {
		t.Fatal("no successful evaluation in 8 tries")
	}
}
