package scalapack

import (
	"math"
	"math/rand"
	"testing"

	"gptunecrowd/internal/core"
	"gptunecrowd/internal/machine"
)

func haswellApp(nodes int) *App { return New(machine.CoriHaswell(nodes)) }

func eval(t *testing.T, a *App, m, n, mb, nb, lg, p int) float64 {
	t.Helper()
	y, err := a.Evaluate(
		map[string]interface{}{"m": m, "n": n},
		map[string]interface{}{"mb": mb, "nb": nb, "lg2npernode": lg, "p": p},
	)
	if err != nil {
		t.Fatal(err)
	}
	return y
}

func TestRuntimePositiveAndFinite(t *testing.T) {
	a := haswellApp(8)
	rng := rand.New(rand.NewSource(1))
	sp := a.ParamSpace()
	task := map[string]interface{}{"m": 10000, "n": 10000}
	for i := 0; i < 200; i++ {
		u := core.RandomPoint(sp, rng)
		y, err := a.Evaluate(task, sp.Decode(u))
		if err != nil {
			t.Fatalf("unexpected failure: %v", err)
		}
		if y <= 0 || math.IsNaN(y) || math.IsInf(y, 0) {
			t.Fatalf("bad runtime %v for %v", y, sp.Decode(u))
		}
	}
}

func TestLargerProblemsTakeLonger(t *testing.T) {
	a := haswellApp(8)
	small := eval(t, a, 6000, 6000, 8, 8, 4, 32)
	big := eval(t, a, 20000, 20000, 8, 8, 4, 32)
	if big <= small {
		t.Fatalf("scaling broken: %v vs %v", small, big)
	}
}

func TestBlockSizeHasInteriorOptimum(t *testing.T) {
	a := haswellApp(8)
	a.NoiseSigma = 0
	tiny := eval(t, a, 10000, 10000, 1, 1, 4, 32)
	mid := eval(t, a, 10000, 10000, 8, 8, 4, 32)
	if mid >= tiny {
		t.Fatalf("moderate blocks should beat tiny blocks: %v vs %v", mid, tiny)
	}
	huge := eval(t, a, 10000, 10000, 15, 15, 4, 32)
	// Huge blocks should not be dramatically better than moderate ones
	// (imbalance pushes back).
	if huge < mid*0.7 {
		t.Fatalf("block-size response surface lacks a knee: mid=%v huge=%v", mid, huge)
	}
}

func TestMoreNodesFaster(t *testing.T) {
	small := haswellApp(4)
	large := haswellApp(16)
	small.NoiseSigma = 0
	large.NoiseSigma = 0
	ys := eval(t, small, 20000, 20000, 8, 8, 4, 64)
	yl := eval(t, large, 20000, 20000, 8, 8, 4, 64)
	if yl >= ys {
		t.Fatalf("more nodes should be faster: 4n=%v 16n=%v", ys, yl)
	}
}

func TestRanksExceedingCoresFail(t *testing.T) {
	a := haswellApp(2)
	_, err := a.Evaluate(
		map[string]interface{}{"m": 5000, "n": 5000},
		map[string]interface{}{"mb": 4, "nb": 4, "lg2npernode": 6, "p": 4}, // 2^6=64 > 32
	)
	if err == nil {
		t.Fatal("expected error for oversubscribed node")
	}
}

func TestMissingParamsRejected(t *testing.T) {
	a := haswellApp(2)
	if _, err := a.Evaluate(map[string]interface{}{"m": 5000}, map[string]interface{}{}); err == nil {
		t.Fatal("expected task validation error")
	}
	if _, err := a.Evaluate(map[string]interface{}{"m": 5000, "n": 5000},
		map[string]interface{}{"mb": 4}); err == nil {
		t.Fatal("expected param validation error")
	}
}

func TestNoiseDeterministicPerConfig(t *testing.T) {
	a := haswellApp(4)
	y1 := eval(t, a, 8000, 8000, 6, 6, 3, 16)
	y2 := eval(t, a, 8000, 8000, 6, 6, 3, 16)
	if y1 != y2 {
		t.Fatal("same config must return the same measured runtime")
	}
	b := haswellApp(4)
	b.Seed = 99
	y3 := eval(t, b, 8000, 8000, 6, 6, 3, 16)
	if y1 == y3 {
		t.Fatal("different seeds should decorrelate noise")
	}
}

func TestCrossMachineCorrelation(t *testing.T) {
	// Haswell and KNL runtimes over random configs should be positively
	// correlated (the premise of Fig. 5(b)) but not identical.
	hsw := New(machine.CoriHaswell(32))
	knl := New(machine.CoriKNL(32))
	hsw.NoiseSigma, knl.NoiseSigma = 0, 0
	task := map[string]interface{}{"m": 20000, "n": 20000}
	sp := hsw.ParamSpace()
	rng := rand.New(rand.NewSource(2))
	var xs, ys []float64
	for i := 0; i < 60; i++ {
		u := core.RandomPoint(sp, rng)
		cfg := sp.Decode(u)
		yh, err1 := hsw.Evaluate(task, cfg)
		yk, err2 := knl.Evaluate(task, cfg)
		if err1 != nil || err2 != nil {
			continue
		}
		xs = append(xs, yh)
		ys = append(ys, yk)
	}
	if len(xs) < 30 {
		t.Fatal("too many failures")
	}
	// Rank correlation by hand (Spearman via simple Pearson on ranks is
	// in internal/stat; avoid the import cycle risk by a crude check):
	// count concordant pairs.
	concordant, total := 0, 0
	for i := 0; i < len(xs); i++ {
		for j := i + 1; j < len(xs); j++ {
			total++
			if (xs[i]-xs[j])*(ys[i]-ys[j]) > 0 {
				concordant++
			}
		}
	}
	frac := float64(concordant) / float64(total)
	if frac < 0.6 {
		t.Fatalf("cross-machine concordance too weak: %v", frac)
	}
	if frac > 0.999 {
		t.Fatal("machines should not be identical")
	}
}

func TestProblemIntegration(t *testing.T) {
	a := haswellApp(8)
	p := a.Problem()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	h, err := core.RunLoop(p, map[string]interface{}{"m": 10000, "n": 10000},
		core.NewGPTuner(), core.SessionOptions{Budget: 6, Seed: 3,
			Search: core.SearchOptions{Candidates: 64, DEGens: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.Best(); !ok {
		t.Fatal("tuning found nothing")
	}
}

func TestPerCallNoise(t *testing.T) {
	a := haswellApp(4)
	a.NoiseSigma = 0.1
	a.PerCallNoise = true
	y1 := eval(t, a, 8000, 8000, 6, 6, 3, 16)
	y2 := eval(t, a, 8000, 8000, 6, 6, 3, 16)
	if y1 == y2 {
		t.Fatal("per-call noise should vary between repeated measurements")
	}
}
