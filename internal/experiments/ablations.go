package experiments

import (
	"fmt"

	"gptunecrowd/internal/apps"
	"gptunecrowd/internal/apps/scalapack"
	"gptunecrowd/internal/core"
	"gptunecrowd/internal/machine"
	"gptunecrowd/internal/stat"
	"gptunecrowd/internal/surrogate"
	"gptunecrowd/internal/tla"
	"gptunecrowd/internal/variability"
)

// Ablations probe the design choices called out in DESIGN.md beyond the
// paper's own figures. Each returns a FigureResult so the cmd harness
// renders them uniformly.

// AblationEnsemble compares the proposed ensemble selection (Eq. 3 +
// Eq. 4) against fixed exploration rates, isolating the value of the
// dynamic rate. Pool and task match Fig. 3(a).
func AblationEnsemble(sc Scale) (*FigureResult, error) {
	p := mustProblem("demo", apps.Options{})
	src, err := CollectSourceSamples("demo t=0.8", p, map[string]interface{}{"t": 0.8}, sc.SourceSamples, sc.Seed+100)
	if err != nil {
		return nil, err
	}
	res, err := RunCompare(CompareSpec{
		Problem: p, Task: map[string]interface{}{"t": 1.0},
		Algorithms:       []string{"Ensemble(proposed)", "Ensemble(toggling)", "Ensemble(prob)"},
		Sources:          []*tla.Source{src},
		MaxSourceSamples: sc.MaxSourceSamples,
		Budget:           sc.Budget, Repeats: sc.Repeats, Seed: sc.Seed, Search: sc.Search,
	})
	if err != nil {
		return nil, err
	}
	res.ID = "ablation-ensemble"
	res.Title = "ensemble selection policy: dynamic rate (Eq. 4) vs toggling vs PDF-only"
	return res, nil
}

// AblationAcquisition compares acquisition functions on the NoTLA tuner
// over the PDGEQRF model.
func AblationAcquisition(sc Scale) (*FigureResult, error) {
	task := map[string]interface{}{"m": 10000, "n": 10000}
	spec := CompareSpec{Problem: mustProblem("pdgeqrf", apps.Options{}), Task: task, Budget: sc.Budget, Repeats: sc.Repeats, Seed: sc.Seed, Search: sc.Search}
	res := &FigureResult{ID: "ablation-acquisition", Title: "acquisition function on PDGEQRF (NoTLA)", Budget: sc.Budget}
	for _, acq := range []core.Acquisition{core.EI{}, core.LCB{}, core.PI{}} {
		acq := acq
		s, err := runSeries(acq.Name(), spec, func() (core.Proposer, error) {
			return surrogate.NewProposer("NoTLA", surrogate.PoolConfig{Acquisition: acq})
		})
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// AblationSourceCap sweeps Multitask(TS)'s per-source sample cap — the
// accuracy/cost trade-off of feeding true samples to the LCM.
func AblationSourceCap(sc Scale) (*FigureResult, error) {
	p := mustProblem("demo", apps.Options{})
	src, err := CollectSourceSamples("demo t=0.8", p, map[string]interface{}{"t": 0.8}, sc.SourceSamples, sc.Seed+100)
	if err != nil {
		return nil, err
	}
	spec := CompareSpec{Problem: p, Task: map[string]interface{}{"t": 1.0}, Budget: sc.Budget, Repeats: sc.Repeats, Seed: sc.Seed, Search: sc.Search}
	res := &FigureResult{ID: "ablation-sourcecap", Title: "Multitask(TS) source-sample cap", Budget: sc.Budget}
	for _, c := range []int{10, 25, 50, 100} {
		c := min(c, src.Len())
		s, err := runSeries(fmt.Sprintf("cap=%d", c), spec, func() (core.Proposer, error) {
			return surrogate.NewProposer("Multitask(TS)", surrogate.PoolConfig{
				Config: surrogate.Config{Sources: []*tla.Source{src}, MaxSourceSamples: c},
			})
		})
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// AblationRobustEval measures the value of repeat-and-aggregate
// measurement (the variability mitigation) on a noisy PDGEQRF: the
// robust evaluator spends its budget in repeated measurements, so the
// comparison holds the number of *application runs* fixed.
func AblationRobustEval(sc Scale) (*FigureResult, error) {
	const noise = 0.15 // a deliberately noisy machine
	task := map[string]interface{}{"m": 10000, "n": 10000}
	budgetRuns := sc.Budget * 3 // total application runs per tuner

	mkApp := func(seed int64) *core.Problem {
		app := scalapack.New(machine.CoriHaswell(8))
		app.NoiseSigma = noise
		app.Seed = seed
		app.PerCallNoise = true // run-to-run noise, the regime being mitigated
		return app.Problem()
	}
	// trueRuntime evaluates without noise for honest scoring.
	clean := scalapack.New(machine.CoriHaswell(8))
	clean.NoiseSigma = 0
	trueY := func(params map[string]interface{}) float64 {
		y, err := clean.Evaluate(task, params)
		if err != nil {
			return 0
		}
		return y
	}

	res := &FigureResult{ID: "ablation-robusteval", Title: "variability mitigation on noisy PDGEQRF (equal application-run budget)", Budget: budgetRuns}
	type variant struct {
		name    string
		repeats int
	}
	for _, v := range []variant{{"plain (1 run/eval)", 1}, {"robust (3 runs/eval, median)", 3}} {
		finals := make([]float64, 0, sc.Repeats)
		for r := 0; r < sc.Repeats; r++ {
			p := mkApp(int64(100 + r))
			if v.repeats > 1 {
				p = &core.Problem{
					Name:       p.Name,
					TaskSpace:  p.TaskSpace,
					ParamSpace: p.ParamSpace,
					Output:     p.Output,
					Evaluator:  &variability.RobustEvaluator{Inner: p.Evaluator, Repeats: v.repeats, CVLimit: 1e9},
				}
			}
			tuner, err := noTLA()
			if err != nil {
				return nil, err
			}
			h, err := core.RunLoop(p, task, tuner, core.SessionOptions{
				Budget: budgetRuns / v.repeats, Seed: sc.Seed + int64(r)*7919, Search: sc.Search,
			})
			if err != nil {
				return nil, err
			}
			best, ok := h.Best()
			if !ok {
				continue
			}
			finals = append(finals, trueY(best.Params))
		}
		// Render as a flat series (final true runtime repeated), so the
		// common renderer works.
		mean := stat.Mean(finals)
		sd := stat.StdDev(finals)
		s := Series{Name: v.name, Mean: make([]float64, budgetRuns), Std: make([]float64, budgetRuns)}
		for i := range s.Mean {
			s.Mean[i] = mean
			s.Std[i] = sd
		}
		res.Series = append(res.Series, s)
	}
	res.Notes = append(res.Notes,
		"series are flat: the value is the final tuned TRUE runtime (noise removed) at equal application-run budgets")
	return res, nil
}
