package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"gptunecrowd/internal/space"
)

func quadProblem(t *testing.T) *Problem {
	t.Helper()
	ps, err := space.New(
		space.Param{Name: "x", Kind: space.Real, Lo: -5, Hi: 5},
		space.Param{Name: "y", Kind: space.Real, Lo: -5, Hi: 5},
	)
	if err != nil {
		t.Fatal(err)
	}
	return &Problem{
		Name:       "quad",
		ParamSpace: ps,
		Evaluator: EvaluatorFunc(func(_, params map[string]interface{}) (float64, error) {
			x := params["x"].(float64)
			y := params["y"].(float64)
			return (x-1)*(x-1) + (y+2)*(y+2) + 0.5, nil
		}),
	}
}

func TestHistoryBasics(t *testing.T) {
	h := &History{}
	h.Append(Sample{ParamU: []float64{0.1}, Y: 5})
	h.Append(Sample{ParamU: []float64{0.2}, Failed: true, Err: "oom"})
	h.Append(Sample{ParamU: []float64{0.3}, Y: 3})
	if h.Len() != 3 || h.NumOK() != 2 {
		t.Fatalf("Len=%d NumOK=%d", h.Len(), h.NumOK())
	}
	b, ok := h.Best()
	if !ok || b.Y != 3 {
		t.Fatalf("Best = %+v", b)
	}
	X, Y := h.XY()
	if len(X) != 2 || Y[1] != 3 {
		t.Fatal("XY should skip failures")
	}
	bsf := h.BestSoFar()
	if bsf[0] != 5 || bsf[1] != 5 || bsf[2] != 3 {
		t.Fatalf("BestSoFar = %v", bsf)
	}
	if !h.Contains([]float64{0.1}, 1e-9) || h.Contains([]float64{0.15}, 1e-9) {
		t.Fatal("Contains wrong")
	}
}

func TestBestSoFarAllFailedIsNaN(t *testing.T) {
	h := &History{}
	h.Append(Sample{Failed: true})
	if !math.IsNaN(h.BestSoFar()[0]) {
		t.Fatal("expected NaN before first success")
	}
	if _, ok := h.Best(); ok {
		t.Fatal("Best should report no sample")
	}
}

func TestEIProperties(t *testing.T) {
	e := EI{}
	// Better mean → higher EI at equal std.
	if e.Score(1, 1, 2) <= e.Score(3, 1, 2) {
		t.Fatal("EI should prefer lower means")
	}
	// More uncertainty → higher EI at equal mean.
	if e.Score(2, 2, 2) <= e.Score(2, 0.5, 2) {
		t.Fatal("EI should prefer higher std at the incumbent")
	}
	// Deterministic case.
	if e.Score(1, 0, 3) != 2 {
		t.Fatalf("deterministic EI = %v", e.Score(1, 0, 3))
	}
	if e.Score(5, 0, 3) != 0 {
		t.Fatal("no improvement means zero EI")
	}
	if e.Name() != "EI" {
		t.Fatal("name")
	}
}

func TestLCBAndPI(t *testing.T) {
	l := LCB{}
	if l.Score(1, 1, 0) <= l.Score(2, 1, 0) {
		t.Fatal("LCB should prefer lower means")
	}
	if l.Score(1, 2, 0) <= l.Score(1, 1, 0) {
		t.Fatal("LCB should prefer higher std")
	}
	p := PI{}
	if v := p.Score(0, 1, 0); math.Abs(v-0.5) > 1e-12 {
		t.Fatalf("PI at incumbent = %v", v)
	}
	if p.Score(1, 0, 3) != 1 || p.Score(5, 0, 3) != 0 {
		t.Fatal("deterministic PI wrong")
	}
	if l.Name() != "LCB" || p.Name() != "PI" {
		t.Fatal("names")
	}
}

func TestSearchNextFindsSurrogateMinimum(t *testing.T) {
	// Surrogate with a known minimum at (0.3, 0.7); tiny uniform std.
	surr := SurrogateFunc(func(x []float64) (float64, float64) {
		return (x[0]-0.3)*(x[0]-0.3) + (x[1]-0.7)*(x[1]-0.7), 0.01
	})
	ps := space.MustNew(
		space.Param{Name: "a", Kind: space.Real, Lo: 0, Hi: 1},
		space.Param{Name: "b", Kind: space.Real, Lo: 0, Hi: 1},
	)
	h := &History{}
	h.Append(Sample{ParamU: []float64{0.9, 0.9}, Y: 1})
	rng := rand.New(rand.NewSource(1))
	u := SearchNext(surr, ps, EI{}, h, rng, SearchOptions{})
	if math.Abs(u[0]-0.3) > 0.05 || math.Abs(u[1]-0.7) > 0.05 {
		t.Fatalf("SearchNext returned %v, want ~(0.3,0.7)", u)
	}
}

func TestSearchNextAvoidsDuplicates(t *testing.T) {
	// One-dimensional integer space with 3 levels; two already taken.
	ps := space.MustNew(space.Param{Name: "k", Kind: space.Integer, Lo: 0, Hi: 3})
	surr := SurrogateFunc(func(x []float64) (float64, float64) { return x[0], 0.01 })
	h := &History{}
	rng := rand.New(rand.NewSource(2))
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		u := SearchNext(surr, ps, EI{}, h, rng, SearchOptions{Candidates: 64, DEGens: 5})
		v := ps.Decode(u)["k"].(int)
		if seen[v] {
			t.Fatalf("duplicate value %d proposed at step %d", v, i)
		}
		seen[v] = true
		h.Append(Sample{ParamU: u, Y: float64(v)})
	}
	// Space exhausted: must still return something.
	u := SearchNext(surr, ps, EI{}, h, rng, SearchOptions{Candidates: 64, DEGens: 5})
	if len(u) != 1 {
		t.Fatal("no point returned for exhausted space")
	}
}

func TestRunLoopConvergesOnQuadratic(t *testing.T) {
	p := quadProblem(t)
	h, err := RunLoop(p, nil, newTestProposer(), SessionOptions{Budget: 25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 25 {
		t.Fatalf("budget not consumed: %d", h.Len())
	}
	b, ok := h.Best()
	if !ok {
		t.Fatal("no best")
	}
	// Optimum value is 0.5; BO with 25 evals should get close.
	if b.Y > 1.5 {
		t.Fatalf("BO best %v too far from 0.5 (params %v)", b.Y, b.Params)
	}
	// Random search with the same budget is usually worse; at minimum
	// BO must beat the mean random value by a wide margin.
	if b.Y > 10 {
		t.Fatal("BO catastrophically bad")
	}
}

func TestRunLoopRecordsFailures(t *testing.T) {
	ps := space.MustNew(space.Param{Name: "x", Kind: space.Real, Lo: 0, Hi: 1})
	calls := 0
	p := &Problem{
		Name:       "flaky",
		ParamSpace: ps,
		Evaluator: EvaluatorFunc(func(_, params map[string]interface{}) (float64, error) {
			calls++
			if calls%2 == 1 {
				return 0, errors.New("oom")
			}
			return params["x"].(float64), nil
		}),
	}
	h, err := RunLoop(p, nil, newTestProposer(), SessionOptions{Budget: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 10 {
		t.Fatalf("failures must consume budget: %d", h.Len())
	}
	if h.NumOK() != 5 {
		t.Fatalf("NumOK = %d", h.NumOK())
	}
	for _, s := range h.Samples {
		if s.Failed && s.Err != "oom" {
			t.Fatal("failure reason lost")
		}
	}
}

func TestRunLoopDeterministic(t *testing.T) {
	p := quadProblem(t)
	h1, err := RunLoop(p, nil, newTestProposer(), SessionOptions{Budget: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := RunLoop(p, nil, newTestProposer(), SessionOptions{Budget: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range h1.Samples {
		if h1.Samples[i].Y != h2.Samples[i].Y {
			t.Fatal("same seed must reproduce the run")
		}
	}
}

func TestRunLoopValidation(t *testing.T) {
	p := quadProblem(t)
	if _, err := RunLoop(p, nil, newTestProposer(), SessionOptions{Budget: 0}); err == nil {
		t.Fatal("expected budget error")
	}
	bad := &Problem{Name: "x"}
	if _, err := RunLoop(bad, nil, newTestProposer(), SessionOptions{Budget: 1}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestOnSampleCallback(t *testing.T) {
	p := quadProblem(t)
	var seen int
	_, err := RunLoop(p, nil, newTestProposer(), SessionOptions{
		Budget: 5, Seed: 6,
		OnSample: func(i int, s Sample) {
			if i != seen {
				t.Fatalf("callback order: got %d want %d", i, seen)
			}
			if s.Proposer != "gp-test" {
				t.Fatalf("proposer tag %q", s.Proposer)
			}
			seen++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 5 {
		t.Fatalf("callback fired %d times", seen)
	}
}

func TestCategoricalMask(t *testing.T) {
	ps := space.MustNew(
		space.Param{Name: "a", Kind: space.Real, Lo: 0, Hi: 1},
		space.Param{Name: "c", Kind: space.Categorical, Categories: []string{"x", "y"}},
	)
	p := &Problem{Name: "m", ParamSpace: ps, Evaluator: EvaluatorFunc(func(_, _ map[string]interface{}) (float64, error) { return 0, nil })}
	mask := p.CategoricalMask()
	if mask == nil || mask[0] || !mask[1] {
		t.Fatalf("mask = %v", mask)
	}
	p2 := quadProblem(t)
	if p2.CategoricalMask() != nil {
		t.Fatal("all-continuous mask should be nil")
	}
}

func TestConstraintsRespected(t *testing.T) {
	ps := space.MustNew(
		space.Param{Name: "a", Kind: space.Integer, Lo: 1, Hi: 9},
		space.Param{Name: "b", Kind: space.Integer, Lo: 1, Hi: 9},
	)
	p := &Problem{
		Name:       "grid",
		ParamSpace: ps,
		Constraints: []Constraint{{
			Name: "product-cap",
			Check: func(_, params map[string]interface{}) bool {
				return params["a"].(int)*params["b"].(int) <= 16
			},
		}},
		Evaluator: EvaluatorFunc(func(_, params map[string]interface{}) (float64, error) {
			a := float64(params["a"].(int))
			b := float64(params["b"].(int))
			return 100/(a*b) + a + b, nil
		}),
	}
	h, err := RunLoop(p, nil, newTestProposer(), SessionOptions{Budget: 15, Seed: 7,
		Search: SearchOptions{Candidates: 64, DEGens: 10}})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range h.Samples {
		prod := s.Params["a"].(int) * s.Params["b"].(int)
		if prod > 16 {
			t.Fatalf("infeasible point proposed: %v", s.Params)
		}
	}
	// The constrained optimum (a*b=16 boundary region) should be found.
	best, _ := h.Best()
	if best.Y > 16 {
		t.Fatalf("constrained best %v too poor", best.Y)
	}
}

func TestFeasibleHelper(t *testing.T) {
	p := quadProblem(t)
	if !p.Feasible(nil, map[string]interface{}{"x": 1.0, "y": 1.0}) {
		t.Fatal("no constraints should mean feasible")
	}
	p.Constraints = []Constraint{{Name: "never", Check: func(_, _ map[string]interface{}) bool { return false }}}
	if p.Feasible(nil, map[string]interface{}{"x": 1.0, "y": 1.0}) {
		t.Fatal("constraint ignored")
	}
	// RandomFeasible must not hang on an unsatisfiable constraint.
	ctx := &ProposeContext{
		Problem: p,
		Rng:     rand.New(rand.NewSource(1)),
		Search:  SearchOptions{Feasible: func(u []float64) bool { return false }},
	}
	if u := ctx.RandomFeasible(); len(u) != 2 {
		t.Fatal("fallback draw missing")
	}
}

func TestBatchLoopRespectsConstraints(t *testing.T) {
	ps := space.MustNew(space.Param{Name: "a", Kind: space.Integer, Lo: 0, Hi: 10})
	p := &Problem{
		Name:       "even",
		ParamSpace: ps,
		Constraints: []Constraint{{
			Name:  "even-only",
			Check: func(_, params map[string]interface{}) bool { return params["a"].(int)%2 == 0 },
		}},
		Evaluator: EvaluatorFunc(func(_, params map[string]interface{}) (float64, error) {
			return float64(params["a"].(int)), nil
		}),
	}
	h, err := runLoopBatch(p, SessionOptions{Budget: 8, Seed: 8,
		Search: SearchOptions{Candidates: 64, DEGens: 8}}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range h.Samples {
		if s.Params["a"].(int)%2 != 0 {
			t.Fatalf("odd value proposed: %v", s.Params)
		}
	}
}
