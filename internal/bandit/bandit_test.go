package bandit

import (
	"bytes"
	"errors"
	"log/slog"
	"math"
	"testing"

	"gptunecrowd/internal/apps/nimrod"
	"gptunecrowd/internal/apps/synth"
	"gptunecrowd/internal/core"
	"gptunecrowd/internal/machine"
	"gptunecrowd/internal/space"
)

// quadraticFidelity is a cheap synthetic multi-fidelity objective: the
// low-fidelity value is the true value plus fidelity-dependent bias.
func quadraticFidelity() (FidelityEvaluator, *space.Space) {
	ps := space.MustNew(
		space.Param{Name: "x", Kind: space.Real, Lo: 0, Hi: 1},
		space.Param{Name: "y", Kind: space.Real, Lo: 0, Hi: 1},
	)
	f := FidelityEvaluatorFunc(func(_, params map[string]interface{}, fid float64) (float64, error) {
		x := params["x"].(float64)
		y := params["y"].(float64)
		true_ := 1 + 5*((x-0.3)*(x-0.3)+(y-0.6)*(y-0.6))
		bias := (1 - fid) * 0.3 * math.Sin(13*x+7*y)
		return true_ + bias, nil
	})
	return f, ps
}

func TestBanditFindsOptimum(t *testing.T) {
	f, ps := quadraticFidelity()
	res, err := Run(ps, nil, f, Options{Budget: 15, Seed: 1,
		Search: core.SearchOptions{Candidates: 64, DEGens: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestParams == nil {
		t.Fatal("no best")
	}
	x := res.BestParams["x"].(float64)
	y := res.BestParams["y"].(float64)
	if math.Abs(x-0.3) > 0.2 || math.Abs(y-0.6) > 0.2 {
		t.Fatalf("bandit best at (%v, %v), want near (0.3, 0.6)", x, y)
	}
	if res.CostSpent > 15+1 {
		t.Fatalf("cost cap exceeded: %v", res.CostSpent)
	}
}

func TestBanditUsesLowFidelityScreening(t *testing.T) {
	f, ps := quadraticFidelity()
	res, err := Run(ps, nil, f, Options{Budget: 10, Seed: 2,
		Search: core.SearchOptions{Candidates: 32, DEGens: 5}})
	if err != nil {
		t.Fatal(err)
	}
	lowCount := 0
	fullCount := 0
	for _, o := range res.Observations {
		if o.Fidelity < 1 {
			lowCount++
		} else {
			fullCount++
		}
	}
	if lowCount == 0 {
		t.Fatal("no low-fidelity evaluations: successive halving is not screening")
	}
	// Low-fidelity runs must outnumber full runs at a meaningful cap.
	if lowCount <= fullCount {
		t.Fatalf("screening weak: %d low vs %d full", lowCount, fullCount)
	}
	// Many more configurations than a full-fidelity-only budget allows.
	if len(res.Observations) <= int(res.CostSpent) {
		t.Fatalf("bandit evaluated %d configs for cost %v; screening should buy more",
			len(res.Observations), res.CostSpent)
	}
}

func TestBanditBestIsHighFidelity(t *testing.T) {
	f, ps := quadraticFidelity()
	res, err := Run(ps, nil, f, Options{Budget: 18, Seed: 3,
		Search: core.SearchOptions{Candidates: 32, DEGens: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFidelity < 0.3 {
		t.Fatalf("best config only validated at fidelity %v", res.BestFidelity)
	}
}

func TestBanditHandlesFailures(t *testing.T) {
	ps := space.MustNew(space.Param{Name: "x", Kind: space.Real, Lo: 0, Hi: 1})
	n := 0
	f := FidelityEvaluatorFunc(func(_, params map[string]interface{}, fid float64) (float64, error) {
		n++
		if n%4 == 0 {
			return 0, errors.New("oom")
		}
		return params["x"].(float64), nil
	})
	res, err := Run(ps, nil, f, Options{Budget: 6, Seed: 4,
		Search: core.SearchOptions{Candidates: 32, DEGens: 5}})
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, o := range res.Observations {
		if o.Failed {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("failures not recorded")
	}
	if res.BestParams == nil {
		t.Fatal("run should still find a best")
	}
}

func TestBanditValidation(t *testing.T) {
	_, ps := quadraticFidelity()
	if _, err := Run(nil, nil, nil, Options{}); err == nil {
		t.Fatal("expected empty-space error")
	}
	if _, err := Run(ps, nil, nil, Options{}); err == nil {
		t.Fatal("expected nil-evaluator error")
	}
}

func TestNIMRODFidelityIntegration(t *testing.T) {
	app := nimrod.New(machine.CoriHaswell(32))
	task := map[string]interface{}{"mx": 5, "my": 7, "lphi": 1}
	res, err := Run(app.ParamSpace(), task, app, Options{Budget: 8, Seed: 5,
		Search: core.SearchOptions{Candidates: 32, DEGens: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestParams == nil || res.BestY <= 0 {
		t.Fatalf("bandit on NIMROD: %+v", res)
	}
}

func TestNIMRODFidelityExtrapolation(t *testing.T) {
	app := nimrod.New(machine.CoriHaswell(32))
	app.NoiseSigma = 0
	task := map[string]interface{}{"mx": 5, "my": 7, "lphi": 1}
	params := map[string]interface{}{"NSUP": 128, "NREL": 20, "nbx": 1, "nby": 1, "npz": 2}
	full, err := app.EvaluateAtFidelity(task, params, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	third, err := app.EvaluateAtFidelity(task, params, 1.0/3)
	if err != nil {
		t.Fatal(err)
	}
	// Extrapolated objectives should agree (same per-step model).
	if math.Abs(full-third)/full > 0.05 {
		t.Fatalf("fidelity extrapolation off: %v vs %v", full, third)
	}
	if _, err := app.EvaluateAtFidelity(task, params, 0); err == nil {
		t.Fatal("expected fidelity range error")
	}
}

func TestRunLogsBrackets(t *testing.T) {
	p := synth.DemoProblem()
	task := map[string]interface{}{"t": 1.0}
	eval := FidelityEvaluatorFunc(func(task, params map[string]interface{}, fid float64) (float64, error) {
		return p.Evaluator.Evaluate(task, params)
	})
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	if _, err := Run(p.ParamSpace, task, eval, Options{Budget: 3, Seed: 2, Logger: logger}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("bandit bracket")) {
		t.Fatal("logger received no bracket diagnostics")
	}
}
