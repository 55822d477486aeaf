// Command transferbench measures the cheap-transfer surrogate pool on
// a seeded 3-source-task workload with a crowd-scale (10k+) target
// history, and writes the result as JSON (the repo's perf-trajectory
// point, BENCH_transfer.json).
//
// Two phases:
//
//   - fit: every surrogate kind fits the same history once and is
//     timed. The cheap-transfer arms (copula, sgp) ingest the full
//     crowd history; the cubic kinds (gp, lcm) are fed the capped
//     subsample they would realistically get (an uncapped cubic fit on
//     10k rows is exactly what they cannot do). The headline numbers
//     are the copula and sgp speedups over the LCM fit.
//
//   - regret: the bandit "auto" pool races the always-LCM proposer
//     (Multitask-style fixed arm) over the same evaluation budget and
//     seeds; the pool must reach the LCM incumbent.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"gptunecrowd/internal/apps/synth"
	"gptunecrowd/internal/core"
	"gptunecrowd/internal/surrogate"
	"gptunecrowd/internal/tla"
)

type fitResult struct {
	Arm        string  `json:"arm"`
	Samples    int     `json:"samples"` // target rows fed to Fit
	FitSeconds float64 `json:"fit_seconds"`
	// SpeedupVsLCM is lcm_fit_seconds / fit_seconds (1 for lcm itself).
	SpeedupVsLCM float64 `json:"speedup_vs_lcm"`
	PredictUsPer float64 `json:"predict_us_per_point"`
}

type regretResult struct {
	Budget    int       `json:"budget"`
	Repeats   int       `json:"repeats"`
	PoolBest  []float64 `json:"pool_best"`
	LCMBest   []float64 `json:"lcm_best"`
	PoolMean  float64   `json:"pool_mean"`
	LCMMean   float64   `json:"lcm_mean"`
	PoolWins  bool      `json:"pool_reaches_lcm"`
	Tolerance float64   `json:"tolerance"`
}

type result struct {
	Benchmark  string `json:"benchmark"`
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`

	SourceTasks   int `json:"source_tasks"`
	SourceSamples int `json:"source_samples_total"`
	TargetSamples int `json:"target_samples"`
	CubicCap      int `json:"cubic_target_cap"`

	Fits   []fitResult  `json:"fits"`
	Regret regretResult `json:"regret"`
}

func main() {
	var (
		seed     = flag.Int64("seed", 9, "RNG seed for sample collection and search")
		target   = flag.Int("target", 10000, "crowd-scale target history size")
		perSrc   = flag.Int("per-source", 1200, "samples per source task")
		cubicCap = flag.Int("cubic-cap", 200, "target rows fed to the cubic kinds (gp, lcm)")
		budget   = flag.Int("budget", 16, "evaluation budget for the regret race")
		repeats  = flag.Int("repeats", 3, "regret-race repeats (distinct seeds)")
		out      = flag.String("out", "", "output JSON path (default stdout)")
	)
	flag.Parse()

	p := synth.DemoProblem()
	rng := rand.New(rand.NewSource(*seed))

	// 3 source tasks at distinct task parameters, plus the target task.
	fmt.Fprintf(os.Stderr, "collecting %d source samples x3 + %d target samples\n", *perSrc, *target)
	var sources []*tla.Source
	for _, tv := range []float64{0.6, 0.8, 0.9} {
		X, Y, err := synth.CollectSamples(p, map[string]interface{}{"t": tv}, *perSrc, rng)
		if err != nil {
			fatal(err)
		}
		sources = append(sources, tla.NewSource(fmt.Sprintf("t=%.1f", tv), X, Y))
	}
	tX, tY, err := synth.CollectSamples(p, map[string]interface{}{"t": 1.0}, *target, rng)
	if err != nil {
		fatal(err)
	}

	res := result{
		Benchmark:     "transfer-surrogate-pool",
		Date:          time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Seed:          *seed,
		SourceTasks:   len(sources),
		SourceSamples: 3 * *perSrc,
		TargetSamples: *target,
		CubicCap:      *cubicCap,
	}

	// Phase 1: fit timing. Probe points for the predict throughput.
	probe := make([][]float64, 1000)
	for i := range probe {
		probe[i] = []float64{rng.Float64()}
	}
	cfg := surrogate.Config{Dim: 1, Sources: sources}
	timeFit := func(kind string, X [][]float64, Y []float64) fitResult {
		s, err := surrogate.New(kind, cfg)
		if err != nil {
			fatal(err)
		}
		if ss, ok := s.(interface{ SetSeed(int64) }); ok {
			ss.SetSeed(*seed)
		}
		fmt.Fprintf(os.Stderr, "fitting %-6s on %d target rows... ", kind, len(X))
		start := time.Now()
		if err := s.Fit(X, Y); err != nil {
			fatal(fmt.Errorf("%s fit: %w", kind, err))
		}
		fitS := time.Since(start).Seconds()
		means := make([]float64, len(probe))
		stds := make([]float64, len(probe))
		pStart := time.Now()
		s.PredictBatchInto(probe, means, stds, 0)
		predictUs := float64(time.Since(pStart).Microseconds()) / float64(len(probe))
		fmt.Fprintf(os.Stderr, "%.3fs fit, %.2fus/predict\n", fitS, predictUs)
		return fitResult{Arm: kind, Samples: len(X), FitSeconds: fitS, PredictUsPer: predictUs}
	}

	capX, capY := tX[:*cubicCap], tY[:*cubicCap]
	fits := []fitResult{
		timeFit(surrogate.KindLCM, capX, capY),
		timeFit(surrogate.KindGP, capX, capY),
		timeFit(surrogate.KindCopula, tX, tY),
		timeFit(surrogate.KindSGP, tX, tY),
	}
	lcmS := fits[0].FitSeconds
	for i := range fits {
		fits[i].SpeedupVsLCM = lcmS / fits[i].FitSeconds
	}
	res.Fits = fits

	// Phase 2: regret race at equal budgets. Fresh, smaller sources per
	// repeat keep the LCM proposer's per-iteration refits tractable.
	reg := regretResult{Budget: *budget, Repeats: *repeats, Tolerance: 0.05}
	for r := 0; r < *repeats; r++ {
		rrng := rand.New(rand.NewSource(*seed + int64(100+r)))
		var rsrc []*tla.Source
		for _, tv := range []float64{0.6, 0.8, 0.9} {
			X, Y, err := synth.CollectSamples(p, map[string]interface{}{"t": tv}, 200, rrng)
			if err != nil {
				fatal(err)
			}
			rsrc = append(rsrc, tla.NewSource(fmt.Sprintf("t=%.1f", tv), X, Y))
		}
		rcfg := surrogate.PoolConfig{Config: surrogate.Config{Sources: rsrc}}
		runSeed := *seed + int64(200+r)
		reg.PoolBest = append(reg.PoolBest, raceBest(p, surrogate.KindAuto, rcfg, *budget, runSeed))
		reg.LCMBest = append(reg.LCMBest, raceBest(p, surrogate.KindLCM, rcfg, *budget, runSeed))
		fmt.Fprintf(os.Stderr, "regret repeat %d: pool %.4f vs lcm %.4f\n",
			r, reg.PoolBest[r], reg.LCMBest[r])
	}
	for r := 0; r < *repeats; r++ {
		reg.PoolMean += reg.PoolBest[r] / float64(*repeats)
		reg.LCMMean += reg.LCMBest[r] / float64(*repeats)
	}
	reg.PoolWins = reg.PoolMean <= reg.LCMMean+reg.Tolerance
	res.Regret = reg

	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}

	for _, f := range res.Fits {
		if (f.Arm == surrogate.KindCopula || f.Arm == surrogate.KindSGP) && f.SpeedupVsLCM < 10 {
			fatal(fmt.Errorf("%s fit only %.1fx faster than lcm (want >= 10x)", f.Arm, f.SpeedupVsLCM))
		}
	}
	if !reg.PoolWins {
		fatal(fmt.Errorf("auto pool (%.4f) missed the always-LCM incumbent (%.4f) at budget %d",
			reg.PoolMean, reg.LCMMean, *budget))
	}
	fmt.Fprintln(os.Stderr, "transferbench passed: cheap arms >= 10x faster, pool reached the LCM incumbent")
}

func raceBest(p *core.Problem, tuner string, cfg surrogate.PoolConfig, budget int, seed int64) float64 {
	prop, err := surrogate.NewProposer(tuner, cfg)
	if err != nil {
		fatal(err)
	}
	h, err := core.RunLoop(p, map[string]interface{}{"t": 1.0}, prop, core.SessionOptions{
		Budget: budget, Seed: seed,
		Search: core.SearchOptions{Candidates: 128, DEGens: 15},
	})
	if err != nil {
		fatal(err)
	}
	best, ok := h.Best()
	if !ok {
		fatal(fmt.Errorf("race run found no best"))
	}
	return best.Y
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "transferbench:", err)
	os.Exit(1)
}
