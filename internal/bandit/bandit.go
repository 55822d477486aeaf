// Package bandit implements a GPTuneBand-style multi-fidelity tuner:
// Hyperband-like successive-halving brackets whose configuration
// proposals come from a Gaussian-process surrogate once observations
// accumulate (Zhu et al., "GPTuneBand: Multitask and Multi-fidelity
// Autotuning for Large-scale High Performance Computing Applications",
// cited by the paper as part of the GPTune package). Cheap low-fidelity
// evaluations (fewer time steps, smaller meshes) screen many
// configurations; survivors are promoted to higher fidelities.
package bandit

import (
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"sort"

	"gptunecrowd/internal/core"
	"gptunecrowd/internal/gp"
	"gptunecrowd/internal/space"
)

// FidelityEvaluator evaluates a configuration at a fidelity in (0, 1]:
// 1 is the full application; smaller values are proportionally cheaper,
// noisier proxies. The returned objective must be comparable across
// fidelities (e.g. normalized per time step).
type FidelityEvaluator interface {
	EvaluateAtFidelity(task, params map[string]interface{}, fidelity float64) (float64, error)
}

// FidelityEvaluatorFunc adapts a function.
type FidelityEvaluatorFunc func(task, params map[string]interface{}, fidelity float64) (float64, error)

// EvaluateAtFidelity implements FidelityEvaluator.
func (f FidelityEvaluatorFunc) EvaluateAtFidelity(task, params map[string]interface{}, fidelity float64) (float64, error) {
	return f(task, params, fidelity)
}

// Observation records one multi-fidelity evaluation.
type Observation struct {
	ParamU   []float64
	Params   map[string]interface{}
	Fidelity float64
	Y        float64
	Failed   bool
	Err      string
}

// Options configures the bandit run. Field names follow the same
// conventions as the package-level TuneOptions and ConnectOptions: the
// zero value of every field selects the default, Budget is the
// evaluation budget, Seed makes the run reproducible and Logger
// receives structured diagnostics.
type Options struct {
	// Budget caps the run in units of full-fidelity evaluations
	// (fidelities sum toward it, so Budget=20 buys the same compute as
	// 20 full runs). Default 20.
	Budget float64
	// MinFidelity is the cheapest rung (default 1/9 with Eta 3).
	MinFidelity float64
	// Eta is the halving rate (default 3).
	Eta int
	// Brackets is the number of Hyperband brackets (default s_max+1).
	Brackets int
	// Seed makes the run reproducible.
	Seed   int64
	Search core.SearchOptions
	// Logger, when non-nil, receives structured diagnostics (bracket
	// starts, surrogate-fit fallbacks). Nil logs nothing.
	Logger *slog.Logger
	// OnObservation observes evaluations as they land.
	OnObservation func(o Observation)
}

// Result reports a bandit run.
type Result struct {
	BestParams   map[string]interface{}
	BestY        float64 // at the highest fidelity reached by the best config
	BestFidelity float64
	Observations []Observation
	CostSpent    float64 // in full-fidelity-evaluation units
}

// Run executes the multi-fidelity tuning.
func Run(ps *space.Space, task map[string]interface{}, eval FidelityEvaluator, opts Options) (*Result, error) {
	if ps == nil || ps.Dim() == 0 {
		return nil, fmt.Errorf("bandit: empty parameter space")
	}
	if eval == nil {
		return nil, fmt.Errorf("bandit: nil evaluator")
	}
	eta := opts.Eta
	if eta < 2 {
		eta = 3
	}
	minFid := opts.MinFidelity
	if minFid <= 0 || minFid >= 1 {
		minFid = 1.0 / float64(eta*eta)
	}
	totalCost := opts.Budget
	if totalCost <= 0 {
		totalCost = 20
	}
	sMax := int(math.Floor(math.Log(1/minFid) / math.Log(float64(eta))))
	brackets := opts.Brackets
	if brackets <= 0 || brackets > sMax+1 {
		brackets = sMax + 1
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	res := &Result{BestY: math.Inf(1)}

	// propose returns a new configuration: model-based (EI over the
	// highest-fidelity observations) when enough data exists, else a
	// random point.
	propose := func() []float64 {
		X, Y := bestFidelityData(res.Observations)
		if len(X) >= 3 {
			model, err := gp.Fit(X, Y, gp.Options{Seed: rng.Int63(), Categorical: ps.CategoricalMask()})
			if err == nil {
				h := &core.History{}
				for i := range X {
					h.Append(core.Sample{ParamU: X[i], Y: Y[i]})
				}
				return core.SearchNext(model, ps, core.EI{}, h, rng, opts.Search)
			}
			if opts.Logger != nil {
				opts.Logger.Warn("bandit surrogate fit failed, proposing randomly",
					"samples", len(X), "err", err.Error())
			}
		}
		return core.RandomPoint(ps, rng)
	}

	evalAt := func(u []float64, fid float64) Observation {
		params := ps.Decode(u)
		o := Observation{ParamU: u, Params: params, Fidelity: fid}
		y, err := eval.EvaluateAtFidelity(task, params, fid)
		if err != nil {
			o.Failed = true
			o.Err = err.Error()
		} else {
			o.Y = y
		}
		res.Observations = append(res.Observations, o)
		res.CostSpent += fid
		if opts.OnObservation != nil {
			opts.OnObservation(o)
		}
		if !o.Failed && (fid > res.BestFidelity || (fid == res.BestFidelity && y < res.BestY)) {
			// Prefer higher-fidelity evidence; within a fidelity prefer
			// the lower objective.
			if fid > res.BestFidelity || y < res.BestY {
				res.BestParams = params
				res.BestY = y
				res.BestFidelity = fid
			}
		}
		return o
	}

	for s := sMax; s >= sMax-brackets+1 && res.CostSpent < totalCost; s-- {
		// Successive halving bracket: n configs at rung fidelity
		// r = eta^{-s}, promoting the top 1/eta each round.
		n := int(math.Ceil(float64(sMax+1) / float64(s+1) * math.Pow(float64(eta), float64(s))))
		if opts.Logger != nil {
			opts.Logger.Info("bandit bracket", "s", s, "configs", n,
				"cost_spent", res.CostSpent, "budget", totalCost)
		}
		fid := math.Pow(float64(eta), -float64(s))
		type entry struct {
			u []float64
			y float64
		}
		var pool []entry
		for i := 0; i < n && res.CostSpent < totalCost; i++ {
			u := propose()
			o := evalAt(u, fid)
			if !o.Failed {
				pool = append(pool, entry{u, o.Y})
			}
		}
		for rung := 0; rung < s && len(pool) > 0 && res.CostSpent < totalCost; rung++ {
			sort.Slice(pool, func(a, b int) bool { return pool[a].y < pool[b].y })
			keep := len(pool) / eta
			if keep < 1 {
				keep = 1
			}
			pool = pool[:keep]
			fid = math.Min(1, fid*float64(eta))
			next := pool[:0:0]
			for _, e := range pool {
				if res.CostSpent >= totalCost {
					break
				}
				o := evalAt(e.u, fid)
				if !o.Failed {
					next = append(next, entry{e.u, o.Y})
				}
			}
			pool = next
		}
	}
	if res.BestParams == nil {
		return res, fmt.Errorf("bandit: no successful evaluation")
	}
	return res, nil
}

// bestFidelityData extracts the observations at the highest fidelity
// that has at least 3 successes (falling back to the highest available).
func bestFidelityData(obs []Observation) ([][]float64, []float64) {
	byFid := map[float64]int{}
	for _, o := range obs {
		if !o.Failed {
			byFid[o.Fidelity]++
		}
	}
	bestFid := -1.0
	for fid, n := range byFid {
		if n >= 3 && fid > bestFid {
			bestFid = fid
		}
	}
	if bestFid < 0 {
		for fid := range byFid {
			if fid > bestFid {
				bestFid = fid
			}
		}
	}
	var X [][]float64
	var Y []float64
	for _, o := range obs {
		if !o.Failed && o.Fidelity == bestFid {
			X = append(X, o.ParamU)
			Y = append(Y, o.Y)
		}
	}
	return X, Y
}
