package variability

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"gptunecrowd/internal/core"
	"gptunecrowd/internal/space"
)

func TestKeyForCanonical(t *testing.T) {
	a := KeyFor(map[string]interface{}{"b": 2, "a": 1})
	b := KeyFor(map[string]interface{}{"a": 1, "b": 2})
	if a != b {
		t.Fatal("key must not depend on map iteration order")
	}
	c := KeyFor(map[string]interface{}{"a": 1, "b": 3})
	if a == c {
		t.Fatal("different configs must differ")
	}
}

func TestAnalyze(t *testing.T) {
	ms := []Measurement{
		{"stable", 10.0}, {"stable", 10.1}, {"stable", 9.9},
		{"noisy", 10.0}, {"noisy", 15.0}, {"noisy", 5.0},
		{"single", 3.0},
	}
	rep := Analyze(ms, 0.05)
	if len(rep.PerConfig) != 2 {
		t.Fatalf("PerConfig = %d", len(rep.PerConfig))
	}
	if rep.Singletons != 1 {
		t.Fatalf("Singletons = %d", rep.Singletons)
	}
	// Ordered by decreasing CV: noisy first.
	if rep.PerConfig[0].Key != "noisy" {
		t.Fatalf("ordering wrong: %v", rep.PerConfig[0].Key)
	}
	if len(rep.Flagged) != 1 || rep.Flagged[0].Key != "noisy" {
		t.Fatalf("Flagged = %+v", rep.Flagged)
	}
	if rep.MeanCV <= 0 {
		t.Fatal("MeanCV should be positive")
	}
	ns := rep.PerConfig[0]
	if ns.Min != 5 || ns.Max != 15 || ns.N != 3 {
		t.Fatalf("stats wrong: %+v", ns)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	rep := Analyze(nil, 0.05)
	if rep.MeanCV != 0 || len(rep.PerConfig) != 0 {
		t.Fatal("empty input should give empty report")
	}
}

func TestFromHistory(t *testing.T) {
	h := &core.History{}
	h.Append(core.Sample{Params: map[string]interface{}{"x": 1}, Y: 2})
	h.Append(core.Sample{Params: map[string]interface{}{"x": 1}, Y: 2.2})
	h.Append(core.Sample{Params: map[string]interface{}{"x": 2}, Failed: true})
	ms := FromHistory(h)
	if len(ms) != 2 {
		t.Fatalf("measurements = %d (failures must be skipped)", len(ms))
	}
	rep := Analyze(ms, 0.01)
	if len(rep.Flagged) != 1 {
		t.Fatalf("expected the repeated config flagged at strict threshold, got %d", len(rep.Flagged))
	}
}

func TestAggregators(t *testing.T) {
	vals := []float64{3, 1, 10}
	if Median(vals) != 3 {
		t.Fatalf("Median = %v", Median(vals))
	}
	if MinOf(vals) != 1 {
		t.Fatalf("MinOf = %v", MinOf(vals))
	}
	if math.Abs(Mean(vals)-14.0/3.0) > 1e-12 {
		t.Fatalf("Mean = %v", Mean(vals))
	}
}

func TestRobustEvaluatorReducesNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	noisy := core.EvaluatorFunc(func(_, _ map[string]interface{}) (float64, error) {
		return 10 * (1 + 0.2*rng.NormFloat64()), nil
	})
	robust := &RobustEvaluator{Inner: noisy, Repeats: 5, CVLimit: 1e9} // no re-measuring
	var plainVar, robustVar float64
	var plainVals, robustVals []float64
	for i := 0; i < 50; i++ {
		p, _ := noisy.Evaluate(nil, nil)
		r, _ := robust.Evaluate(nil, nil)
		plainVals = append(plainVals, p)
		robustVals = append(robustVals, r)
	}
	variance := func(xs []float64) float64 {
		var m, s float64
		for _, v := range xs {
			m += v
		}
		m /= float64(len(xs))
		for _, v := range xs {
			s += (v - m) * (v - m)
		}
		return s / float64(len(xs))
	}
	plainVar = variance(plainVals)
	robustVar = variance(robustVals)
	if robustVar >= plainVar/2 {
		t.Fatalf("aggregation should cut variance: %v vs %v", robustVar, plainVar)
	}
}

func TestRobustEvaluatorAdaptiveRemeasure(t *testing.T) {
	calls := 0
	// Alternating wild values force the CV trigger.
	wild := core.EvaluatorFunc(func(_, _ map[string]interface{}) (float64, error) {
		calls++
		if calls%2 == 0 {
			return 20, nil
		}
		return 5, nil
	})
	r := &RobustEvaluator{Inner: wild, Repeats: 2, CVLimit: 0.05, MaxExtra: 3}
	if _, err := r.Evaluate(nil, nil); err != nil {
		t.Fatal(err)
	}
	if r.TotalRuns != 5 { // 2 base + 3 extra (CV never settles)
		t.Fatalf("TotalRuns = %d, want 5", r.TotalRuns)
	}
}

func TestRobustEvaluatorStableSkipsExtra(t *testing.T) {
	stable := core.EvaluatorFunc(func(_, _ map[string]interface{}) (float64, error) {
		return 7, nil
	})
	r := &RobustEvaluator{Inner: stable, Repeats: 3, CVLimit: 0.05, MaxExtra: 3}
	y, err := r.Evaluate(nil, nil)
	if err != nil || y != 7 {
		t.Fatalf("y=%v err=%v", y, err)
	}
	if r.TotalRuns != 3 {
		t.Fatalf("TotalRuns = %d, want 3", r.TotalRuns)
	}
}

func TestRobustEvaluatorPropagatesFailure(t *testing.T) {
	fail := core.EvaluatorFunc(func(_, _ map[string]interface{}) (float64, error) {
		return 0, errors.New("oom")
	})
	r := &RobustEvaluator{Inner: fail}
	if _, err := r.Evaluate(nil, nil); err == nil {
		t.Fatal("expected propagated failure")
	}
}

func TestRobustEvaluatorInTuningLoop(t *testing.T) {
	// End to end: the robust evaluator plugs into the ordinary loop.
	ps := mustSpace(t)
	rng := rand.New(rand.NewSource(3))
	inner := core.EvaluatorFunc(func(_, params map[string]interface{}) (float64, error) {
		x := params["x"].(float64)
		return (x-0.5)*(x-0.5) + 1 + 0.02*rng.NormFloat64(), nil
	})
	p := &core.Problem{
		Name:       "robust",
		ParamSpace: ps,
		Evaluator:  &RobustEvaluator{Inner: inner, Repeats: 3},
	}
	h, err := core.RunLoop(p, nil, core.NewGPTuner(), core.SessionOptions{Budget: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	best, ok := h.Best()
	if !ok || best.Y > 1.2 {
		t.Fatalf("robust tuning best %v", best.Y)
	}
}

func mustSpace(t *testing.T) *space.Space {
	t.Helper()
	return space.MustNew(space.Param{Name: "x", Kind: space.Real, Lo: 0, Hi: 1})
}
