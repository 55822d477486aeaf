package experiments

import (
	"math"
	"strings"
	"testing"

	"gptunecrowd/internal/apps/synth"
	"gptunecrowd/internal/core"
	"gptunecrowd/internal/space"
	"gptunecrowd/internal/surrogate"
	"gptunecrowd/internal/tla"
)

// tiny is an even smaller scale than QuickScale for unit tests.
var tiny = Scale{
	Budget:           4,
	Repeats:          2,
	SourceSamples:    25,
	MaxSourceSamples: 20,
	SurrogateCap:     40,
	SensN:            64,
	Seed:             1,
	Search:           core.SearchOptions{Candidates: 32, DEGens: 6},
}

func TestRunCompareBasics(t *testing.T) {
	p := synth.DemoProblem()
	src, err := CollectSourceSamples("s", p, map[string]interface{}{"t": 0.8}, 25, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCompare(CompareSpec{
		Problem:    p,
		Task:       map[string]interface{}{"t": 1.0},
		Algorithms: []string{"NoTLA", "Stacking"},
		Sources:    []*tla.Source{src},
		Budget:     4, Repeats: 2, Seed: 1, Search: tiny.Search,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("%d series", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Mean) != 4 {
			t.Fatalf("series %s length %d", s.Name, len(s.Mean))
		}
		// Best-so-far must be non-increasing once defined.
		for i := 1; i < len(s.Mean); i++ {
			if !math.IsNaN(s.Mean[i-1]) && s.Mean[i] > s.Mean[i-1]+1e-12 {
				t.Fatalf("series %s not monotone at %d", s.Name, i)
			}
		}
	}
	if got := res.BestAt("NoTLA", res.Budget); got != res.Series[0].Mean[3] {
		t.Fatal("BestAt disagrees with the series")
	}
	rank := res.RankAtBudget(4)
	if len(rank) != 2 {
		t.Fatal("rank wrong")
	}
}

func TestRunCompareValidation(t *testing.T) {
	if _, err := RunCompare(CompareSpec{}); err == nil {
		t.Fatal("expected budget/repeats error")
	}
	p := synth.DemoProblem()
	if _, err := RunCompare(CompareSpec{
		Problem: p, Task: map[string]interface{}{"t": 1.0},
		Algorithms: []string{"Nope"}, Budget: 2, Repeats: 1,
	}); err == nil {
		t.Fatal("expected unknown-algorithm error")
	}
}

func TestFig3Variants(t *testing.T) {
	for _, v := range []string{"a", "c"} {
		res, err := Fig3(v, tiny)
		if err != nil {
			t.Fatalf("fig3%s: %v", v, err)
		}
		if len(res.Series) != len(surrogate.Algorithms()) {
			t.Fatalf("fig3%s: %d series", v, len(res.Series))
		}
		var sb strings.Builder
		res.Render(&sb)
		if !strings.Contains(sb.String(), res.ID) {
			t.Fatal("render missing id")
		}
	}
	if _, err := Fig3("z", tiny); err == nil {
		t.Fatal("expected variant error")
	}
}

func TestFig4(t *testing.T) {
	res, err := Fig4("a", tiny)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "fig4a" || len(res.Series) != len(surrogate.Algorithms()) {
		t.Fatalf("res = %s with %d series", res.ID, len(res.Series))
	}
	if _, err := Fig4("q", tiny); err == nil {
		t.Fatal("expected variant error")
	}
}

func TestFig5WithFailures(t *testing.T) {
	res, err := Fig5("c", tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != len(CaseStudyTuners) {
		t.Fatalf("%d series", len(res.Series))
	}
	if _, err := Fig5("q", tiny); err == nil {
		t.Fatal("expected variant error")
	}
}

func TestTables4And5Ordering(t *testing.T) {
	res4, err := Table4(tiny)
	if err != nil {
		t.Fatal(err)
	}
	st := map[string]float64{}
	for i, n := range res4.Names {
		st[n] = res4.ST[i]
	}
	// The paper's qualitative finding: COLPERM dominates; LOOKAHEAD and
	// NREL are minor.
	if st["COLPERM"] < st["LOOKAHEAD"] || st["COLPERM"] < st["NREL"] {
		t.Fatalf("Table IV ordering broken: %v", st)
	}

	res5, err := Table5(tiny)
	if err != nil {
		t.Fatal(err)
	}
	st5 := map[string]float64{}
	for i, n := range res5.Names {
		st5[n] = res5.ST[i]
	}
	if st5["smooth_type"] < st5["strong_threshold"] || st5["agg_num_levels"] < st5["trunc_factor"] {
		t.Fatalf("Table V ordering broken: %v", st5)
	}
}

func TestReduceProblem(t *testing.T) {
	ps := space.MustNew(
		space.Param{Name: "a", Kind: space.Real, Lo: 0, Hi: 1},
		space.Param{Name: "b", Kind: space.Real, Lo: 0, Hi: 1},
		space.Param{Name: "c", Kind: space.Integer, Lo: 0, Hi: 10},
	)
	var lastB, lastC interface{}
	p := &core.Problem{
		Name:       "toy",
		ParamSpace: ps,
		Evaluator: core.EvaluatorFunc(func(_, params map[string]interface{}) (float64, error) {
			lastB = params["b"]
			lastC = params["c"]
			return params["a"].(float64), nil
		}),
	}
	red, err := ReduceProblem(p, []string{"a"}, map[string]interface{}{"b": 0.5}, []string{"c"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if red.ParamSpace.Dim() != 1 {
		t.Fatal("subspace wrong")
	}
	seen := map[int]bool{}
	for i := 0; i < 20; i++ {
		if _, err := red.Evaluator.Evaluate(nil, map[string]interface{}{"a": 0.3}); err != nil {
			t.Fatal(err)
		}
		if lastB.(float64) != 0.5 {
			t.Fatal("fixed parameter not applied")
		}
		seen[lastC.(int)] = true
	}
	if len(seen) < 3 {
		t.Fatalf("randomized parameter not redrawn: %v", seen)
	}
	if _, err := ReduceProblem(p, []string{"zz"}, nil, nil, 1); err == nil {
		t.Fatal("expected unknown keep error")
	}
	if _, err := ReduceProblem(p, []string{"a"}, map[string]interface{}{"zz": 1}, nil, 1); err == nil {
		t.Fatal("expected unknown fixed error")
	}
	if _, err := ReduceProblem(p, []string{"a"}, nil, []string{"zz"}, 1); err == nil {
		t.Fatal("expected unknown randomized error")
	}
}

func TestFig6And7ReducedBeatsOrEqualsOriginal(t *testing.T) {
	sc := tiny
	sc.Budget = 8
	res6, err := Fig6(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res6.Series) != 2 {
		t.Fatal("fig6 needs 2 series")
	}
	res7, err := Fig7(sc)
	if err != nil {
		t.Fatal(err)
	}
	// The reduced space should not be dramatically worse at the final
	// budget (the paper shows it is better at ~10 evals; at tiny scale
	// we only assert sanity).
	orig := res7.BestAt("original space", res7.Budget)
	red := res7.BestAt("reduced space", res7.Budget)
	if math.IsNaN(orig) || math.IsNaN(red) {
		t.Fatal("fig7 series missing")
	}
	if red > orig*2 {
		t.Fatalf("reduced space catastrophically worse: %v vs %v", red, orig)
	}
}

func TestStaticTables(t *testing.T) {
	if !strings.Contains(Table1(), "Ensemble(proposed)") {
		t.Fatal("table1 incomplete")
	}
	if !strings.Contains(Table2(), "lg2npernode") {
		t.Fatal("table2 incomplete")
	}
	if !strings.Contains(Table3(), "NSUP") {
		t.Fatal("table3 incomplete")
	}
}
