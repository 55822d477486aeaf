package experiments

import (
	"fmt"
	"math/rand"
	"sync"

	"gptunecrowd/internal/apps"
	"gptunecrowd/internal/apps/hypre"
	"gptunecrowd/internal/apps/superlu"
	"gptunecrowd/internal/apps/synth"
	"gptunecrowd/internal/core"
	"gptunecrowd/internal/sensitivity"
	"gptunecrowd/internal/space"
	"gptunecrowd/internal/surrogate"
	"gptunecrowd/internal/tla"
)

// Scale sets the experiment sizes. PaperScale reproduces the paper's
// sample counts; QuickScale is a minutes-not-hours variant with the
// same qualitative behaviour, used by the benchmarks.
type Scale struct {
	Budget           int // function evaluations per run
	Repeats          int // tuning repeats (different seeds)
	SourceSamples    int // pre-collected samples per source task
	MaxSourceSamples int // LCM source cap (Multitask TS / ensembles)
	SurrogateCap     int // max samples for sensitivity surrogate fits
	SensN            int // Saltelli base samples
	Seed             int64
	Search           core.SearchOptions
}

// PaperScale mirrors the paper's experiment sizes.
var PaperScale = Scale{
	Budget:           20,
	Repeats:          5,
	SourceSamples:    200,
	MaxSourceSamples: 100,
	SurrogateCap:     400,
	SensN:            1024,
	Seed:             1,
}

// QuickScale runs the same experiments in miniature.
var QuickScale = Scale{
	Budget:           6,
	Repeats:          2,
	SourceSamples:    40,
	MaxSourceSamples: 30,
	SurrogateCap:     80,
	SensN:            128,
	Seed:             1,
	Search:           core.SearchOptions{Candidates: 64, DEGens: 10},
}

// Fig3 reproduces the synthetic-function TLA comparison. Variants:
// "a"/"b" are the demo function with source t=0.8 and targets t=1.0 /
// t=1.2 (one source); "c"/"d" are Branin with one random source task;
// "e"/"f" are Branin with three random source tasks.
func Fig3(variant string, sc Scale) (*FigureResult, error) {
	switch variant {
	case "a", "b":
		p := mustProblem("demo", apps.Options{})
		target := map[string]interface{}{"t": 1.0}
		if variant == "b" {
			target = map[string]interface{}{"t": 1.2}
		}
		src, err := CollectSourceSamples("demo t=0.8", p, map[string]interface{}{"t": 0.8}, sc.SourceSamples, sc.Seed+100)
		if err != nil {
			return nil, err
		}
		res, err := RunCompare(CompareSpec{
			Problem: p, Task: target,
			Algorithms:       surrogate.Algorithms(),
			Sources:          []*tla.Source{src},
			MaxSourceSamples: sc.MaxSourceSamples,
			Budget:           sc.Budget, Repeats: sc.Repeats, Seed: sc.Seed, Search: sc.Search,
		})
		if err != nil {
			return nil, err
		}
		res.ID = "fig3" + variant
		res.Title = fmt.Sprintf("demo function, source t=0.8 (%d samples), target t=%v", src.Len(), target["t"])
		return res, nil
	case "c", "d", "e", "f":
		p := mustProblem("branin", apps.Options{})
		rng := rand.New(rand.NewSource(sc.Seed + 300))
		nSources := 1
		if variant == "e" || variant == "f" {
			nSources = 3
		}
		var sources []*tla.Source
		for i := 0; i < nSources; i++ {
			srcTask := synth.RandomBraninTask(rng)
			src, err := CollectSourceSamples(fmt.Sprintf("branin S%d", i+1), p, srcTask, sc.SourceSamples, sc.Seed+400+int64(i))
			if err != nil {
				return nil, err
			}
			sources = append(sources, src)
		}
		target := synth.RandomBraninTask(rng)
		if variant == "d" || variant == "f" {
			target = synth.RandomBraninTask(rng) // second random target (T2)
		}
		res, err := RunCompare(CompareSpec{
			Problem: p, Task: target,
			Algorithms:       surrogate.Algorithms(),
			Sources:          sources,
			MaxSourceSamples: sc.MaxSourceSamples,
			Budget:           sc.Budget, Repeats: sc.Repeats, Seed: sc.Seed, Search: sc.Search,
		})
		if err != nil {
			return nil, err
		}
		res.ID = "fig3" + variant
		res.Title = fmt.Sprintf("Branin, %d source task(s) × %d samples", nSources, sc.SourceSamples)
		return res, nil
	}
	return nil, fmt.Errorf("experiments: unknown Fig3 variant %q", variant)
}

// Fig4 reproduces the PDGEQRF case study on 8 Cori Haswell nodes
// (256 cores): variant "a" uses one source task (m=n=10000), "b" three
// source tasks (m=n=10000, 8000, 6000); the target task is m=n=12000.
// Source datasets hold 100 random samples each at PaperScale.
func Fig4(variant string, sc Scale) (*FigureResult, error) {
	p := mustProblem("pdgeqrf", apps.Options{})
	nSamples := sc.SourceSamples
	if nSamples > 100 {
		nSamples = 100 // the paper's source size
	}
	sizes := []int{10000}
	if variant == "b" {
		sizes = []int{10000, 8000, 6000}
	} else if variant != "a" {
		return nil, fmt.Errorf("experiments: unknown Fig4 variant %q", variant)
	}
	var sources []*tla.Source
	for i, s := range sizes {
		src, err := CollectSourceSamples(fmt.Sprintf("m=n=%d", s), p,
			map[string]interface{}{"m": s, "n": s}, nSamples, sc.Seed+500+int64(i))
		if err != nil {
			return nil, err
		}
		sources = append(sources, src)
	}
	budget := min(sc.Budget, 10) // the paper evaluates 10 evals, 3 repeats
	repeats := min(sc.Repeats, 3)
	res, err := RunCompare(CompareSpec{
		Problem: p, Task: map[string]interface{}{"m": 12000, "n": 12000},
		Algorithms:       surrogate.Algorithms(),
		Sources:          sources,
		MaxSourceSamples: sc.MaxSourceSamples,
		Budget:           budget, Repeats: repeats, Seed: sc.Seed, Search: sc.Search,
	})
	if err != nil {
		return nil, err
	}
	res.ID = "fig4" + variant
	res.Title = fmt.Sprintf("PDGEQRF on 8 Haswell nodes, %d source task(s), target m=n=12000", len(sizes))
	res.Notes = append(res.Notes, "paper target task is unstated; m=n=12000 chosen (documented in EXPERIMENTS.md)")
	return res, nil
}

// Fig5 reproduces the NIMROD case study. The source is always
// {mx:5, my:7, lphi:1} on 32 Haswell nodes with 500 samples at
// PaperScale. Variants: "a" targets 64 Haswell nodes, same task;
// "b" targets 32 KNL nodes with {mx:5, my:4, lphi:1}; "c" targets 64
// Haswell nodes with {mx:6, my:8, lphi:1} (the failure-prone case).
func Fig5(variant string, sc Scale) (*FigureResult, error) {
	srcProblem := mustProblem("nimrod", apps.Options{})
	nSamples := sc.SourceSamples
	if nSamples > 500 {
		nSamples = 500
	}
	src, err := CollectSourceSamples("32hsw mx5 my7 lphi1", srcProblem,
		map[string]interface{}{"mx": 5, "my": 7, "lphi": 1}, nSamples, sc.Seed+600)
	if err != nil {
		return nil, err
	}
	// Seed 7 decorrelates the target's noise from the source app's.
	tgtOpts := apps.Options{Nodes: 64, Seed: 7}
	var task map[string]interface{}
	var title string
	switch variant {
	case "a":
		task = map[string]interface{}{"mx": 5, "my": 7, "lphi": 1}
		title = "NIMROD: 32→64 Haswell nodes, same task"
	case "b":
		tgtOpts.Nodes, tgtOpts.Partition = 32, "knl"
		task = map[string]interface{}{"mx": 5, "my": 4, "lphi": 1}
		title = "NIMROD: Haswell→KNL, different task"
	case "c":
		task = map[string]interface{}{"mx": 6, "my": 8, "lphi": 1}
		title = "NIMROD: larger task {mx:6,my:8} on 64 Haswell nodes"
	default:
		return nil, fmt.Errorf("experiments: unknown Fig5 variant %q", variant)
	}
	budget := min(sc.Budget, 10)
	repeats := min(sc.Repeats, 3)
	res, err := RunCompare(CompareSpec{
		Problem: mustProblem("nimrod", tgtOpts), Task: task,
		Algorithms:       CaseStudyTuners,
		Sources:          []*tla.Source{src},
		MaxSourceSamples: sc.MaxSourceSamples,
		Budget:           budget, Repeats: repeats, Seed: sc.Seed, Search: sc.Search,
	})
	if err != nil {
		return nil, err
	}
	res.ID = "fig5" + variant
	res.Title = title
	return res, nil
}

// sensitivityFromSamples fits a GP surrogate to pre-collected samples
// (capped at sc.SurrogateCap) and runs the Sobol analysis on it — the
// QuerySensitivityAnalysis workflow behind Tables IV and V.
func sensitivityFromSamples(p *core.Problem, task map[string]interface{}, nSamples int, sc Scale) (*sensitivity.Result, error) {
	src, err := CollectSourceSamples("sens", p, task, nSamples, sc.Seed+700)
	if err != nil {
		return nil, err
	}
	sub := src
	if sc.SurrogateCap > 0 {
		sub = src.Subsample(sc.SurrogateCap, rand.New(rand.NewSource(sc.Seed+701)))
	}
	return surrogate.Sensitivity(p.ParamSpace, sub.X, sub.Y, sc.Seed+702,
		sensitivity.Options{N: sc.SensN, NBoot: 100, Seed: sc.Seed + 703})
}

// Table4 reproduces the SuperLU_DIST sensitivity analysis: matrix
// Si5H12, 500 samples collected on 4 Cori Haswell nodes.
func Table4(sc Scale) (*sensitivity.Result, error) {
	n := 500
	if sc.SourceSamples < 100 {
		n = 5 * sc.SourceSamples // shrink with the scale
	}
	return sensitivityFromSamples(mustProblem("superlu", apps.Options{}), nil, n, sc)
}

// Table5 reproduces the Hypre sensitivity analysis: nx=ny=nz=100,
// 1000 samples collected on one Cori Haswell node.
func Table5(sc Scale) (*sensitivity.Result, error) {
	n := 1000
	if sc.SourceSamples < 100 {
		n = 10 * sc.SourceSamples
	}
	task := map[string]interface{}{"nx": 100, "ny": 100, "nz": 100}
	return sensitivityFromSamples(mustProblem("hypre", apps.Options{}), task, n, sc)
}

// ReduceProblem builds a reduced tuning problem: only keep is tuned;
// fixed parameters take the given values; randomized parameters are
// redrawn uniformly at every evaluation (the Fig. 7 treatment of Px,
// Py, Nproc, whose defaults are unknown).
func ReduceProblem(p *core.Problem, keep []string, fixed map[string]interface{}, randomized []string, seed int64) (*core.Problem, error) {
	sub, err := p.ParamSpace.Subspace(keep...)
	if err != nil {
		return nil, err
	}
	// Validate the fixed and randomized names against the full space.
	full := p.ParamSpace
	randomParams := make([]space.Param, 0, len(randomized))
	for _, name := range randomized {
		i := full.Index(name)
		if i < 0 {
			return nil, fmt.Errorf("experiments: unknown randomized parameter %q", name)
		}
		randomParams = append(randomParams, full.Params[i])
	}
	for name := range fixed {
		if full.Index(name) < 0 {
			return nil, fmt.Errorf("experiments: unknown fixed parameter %q", name)
		}
	}
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	inner := p.Evaluator
	return &core.Problem{
		Name:       p.Name + " (reduced)",
		TaskSpace:  p.TaskSpace,
		ParamSpace: sub,
		Output:     p.Output,
		Evaluator: core.EvaluatorFunc(func(task, params map[string]interface{}) (float64, error) {
			merged := make(map[string]interface{}, full.Dim())
			for k, v := range fixed {
				merged[k] = v
			}
			mu.Lock()
			for _, rp := range randomParams {
				merged[rp.Name] = rp.Decode(rng.Float64())
			}
			mu.Unlock()
			for k, v := range params {
				merged[k] = v
			}
			return inner.Evaluate(task, merged)
		}),
	}, nil
}

// Fig6 reproduces the SuperLU_DIST reduced-space tuning: matrix H2O on
// 4 Haswell nodes; the reduced problem fixes LOOKAHEAD and NREL at
// their defaults and tunes COLPERM, nprows and NSUP.
func Fig6(sc Scale) (*FigureResult, error) {
	p := mustProblem("superlu", apps.Options{Matrix: "H2O", Seed: 11})
	defaults := superlu.Defaults()
	reduced, err := ReduceProblem(p,
		[]string{"COLPERM", "nprows", "NSUP"},
		map[string]interface{}{"LOOKAHEAD": defaults["LOOKAHEAD"], "NREL": defaults["NREL"]},
		nil, sc.Seed+800)
	if err != nil {
		return nil, err
	}
	return compareSpaces("fig6", "SuperLU_DIST (H2O): original vs reduced search space", p, reduced, nil, sc, 3)
}

// Fig7 reproduces the Hypre reduced-space tuning: the reduced problem
// tunes the three most sensitive parameters (smooth_type,
// smooth_num_levels, agg_num_levels), fixes the six with known defaults
// and randomizes Px, Py, Nproc.
func Fig7(sc Scale) (*FigureResult, error) {
	p := mustProblem("hypre", apps.Options{Seed: 13})
	task := map[string]interface{}{"nx": 100, "ny": 100, "nz": 100}
	reduced, err := ReduceProblem(p,
		[]string{"smooth_type", "smooth_num_levels", "agg_num_levels"},
		hypre.Defaults(),
		[]string{"Px", "Py", "Nproc"},
		sc.Seed+900)
	if err != nil {
		return nil, err
	}
	return compareSpaces("fig7", "Hypre (nx=ny=nz=100): original vs reduced search space", p, reduced, task, sc, 5)
}

// noTLA builds the paper's baseline tuner.
func noTLA() (core.Proposer, error) { return surrogate.NewProposer("NoTLA", surrogate.PoolConfig{}) }

// compareSpaces runs NoTLA tuning on the original and reduced problems
// and merges the two series into one figure.
func compareSpaces(id, title string, original, reduced *core.Problem, task map[string]interface{}, sc Scale, maxRepeats int) (*FigureResult, error) {
	res := &FigureResult{ID: id, Title: title, Budget: min(sc.Budget, 20)}
	for _, v := range []struct {
		name string
		p    *core.Problem
	}{{"original space", original}, {"reduced space", reduced}} {
		s, err := runSeries(v.name, CompareSpec{
			Problem: v.p, Task: task,
			Budget: res.Budget, Repeats: min(sc.Repeats, maxRepeats), Seed: sc.Seed, Search: sc.Search,
		}, noTLA)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}
