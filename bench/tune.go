package main

import (
	"fmt"
	"math/rand"
	"time"

	"gptunecrowd"
	"gptunecrowd/internal/apps/scalapack"
	"gptunecrowd/internal/core"
	"gptunecrowd/internal/machine"
)

// tuneConfig is one tuner of the comparison.
type tuneConfig struct {
	label     string
	algorithm string
	surrogate string
	sourceFed bool
	// sampled marks the tuner whose iterations make up the latency
	// sample. Iteration cost differs by an order of magnitude between
	// tuners (NoTLA 2 ms, auto 13 ms, the ensemble 20 - 90 ms by the member
	// it picks, Multitask(TS) 90 ms), so a median over all of them lands
	// between two tuners and moves with the seed; Multitask(TS) does the
	// same thing every iteration — one LCM fit, one search.
	sampled bool
}

// tuneConfigs is the paper's baseline plus the three source-fed tuners
// ROADMAP item 3 wants to merge: their time and quality must stay flat.
var tuneConfigs = []tuneConfig{
	{label: "NoTLA", algorithm: "NoTLA"},
	{label: "Multitask(TS)", algorithm: "Multitask(TS)", sourceFed: true, sampled: true},
	{label: "Ensemble(proposed)", algorithm: "Ensemble(proposed)", sourceFed: true},
	{label: "auto", surrogate: "auto", sourceFed: true},
}

var (
	tuneSourceTask = map[string]interface{}{"m": 10000, "n": 10000}
	tuneTargetTask = map[string]interface{}{"m": 12000, "n": 12000}
)

// tuneFixture is tune_tla: the library alone, no HTTP. The Fig. 4a
// set-up — PDGEQRF on 8 Haswell nodes, one source task at m=n=10000,
// target m=n=12000 — run sequentially on one goroutine.
type tuneFixture struct {
	sc      scale
	seed    int64
	app     *scalapack.App
	sources []*gptunecrowd.SourceTask
	rounds  int // rounds run so far, across windows; each uses fresh tuner seeds
}

func setupTune(sc scale, seed int64) (fixture, error) {
	f := &tuneFixture{sc: sc, seed: seed, app: scalapack.New(machine.CoriHaswell(8))}
	p := f.app.Problem()
	rng := rand.New(rand.NewSource(seed + 500))
	var X [][]float64
	var Y []float64
	for len(X) < sc.tuneSource {
		u := core.RandomPoint(p.ParamSpace, rng)
		y, err := p.Evaluator.Evaluate(tuneSourceTask, p.ParamSpace.Decode(u))
		if err != nil {
			continue // an infeasible random configuration; draw another
		}
		X = append(X, u)
		Y = append(Y, y)
	}
	f.sources = []*gptunecrowd.SourceTask{gptunecrowd.NewSource("m=n=10000", X, Y)}
	// Warm-up on a seed no measured round uses: first-use costs (pools,
	// page faults) land in set-up, where users pay them once.
	for _, cfg := range []tuneConfig{tuneConfigs[0], tuneConfigs[3]} {
		if _, err := f.tune(cfg, seed-1, nil, nil, 0); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func (f *tuneFixture) close() {}

// tunerSeed is the seed of round r, spaced like the experiments package
// spaces its repeats.
func (f *tuneFixture) tunerSeed(r int) int64 { return f.seed + int64(r)*7919 }

// tune runs one budgeted tuning run. When log is set, every iteration —
// the tuner's propose step plus the evaluation it leads to — is one
// operation, timed from the end of the previous evaluation. All count
// toward throughput; the sampled tuner's make up the latency sample.
func (f *tuneFixture) tune(cfg tuneConfig, seed int64, log *clientLog, tr *tracer, trace int64) (*gptunecrowd.Result, error) {
	p := f.app.Problem()
	inner := p.Evaluator
	run := tr.start(trace, 0, "tune.run:"+cfg.label)
	last := time.Now()
	prop := tr.start(trace, run.id(), "tune.propose")
	p.Evaluator = core.EvaluatorFunc(func(task, params map[string]interface{}) (float64, error) {
		prop.end()
		ev := tr.start(trace, run.id(), "tune.evaluate")
		y, err := inner.Evaluate(task, params)
		ev.end()
		now := time.Now()
		if log != nil {
			log.ok(cfg.label, now.Sub(last), cfg.sampled)
		}
		last = now
		prop = tr.start(trace, run.id(), "tune.propose")
		return y, err
	})
	opts := gptunecrowd.TuneOptions{Budget: f.sc.tuneBudget, Seed: seed, Algorithm: cfg.algorithm, Surrogate: cfg.surrogate}
	if cfg.sourceFed {
		opts.Sources = f.sources
	}
	res, err := gptunecrowd.Tune(p, tuneTargetTask, opts)
	run.end()
	return res, err
}

// measure runs whole rounds — the four tuners at one seed — until the
// window closes, and at least tuneRounds of them: quality is computed
// over exactly those first rounds, so it repeats bit for bit whatever
// the machine's speed.
func (f *tuneFixture) measure(seconds float64, tr *tracer) *measurement {
	m := &measurement{counters: map[string]float64{}}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var baseline, transfer []float64
	fixedWall := 0.0
	for r := 0; r < f.sc.tuneRounds || time.Now().Before(deadline); r++ {
		for _, cfg := range tuneConfigs {
			res, err := f.tune(cfg, f.tunerSeed(f.rounds), &m.clientLog, tr, tr.newTrace())
			if err != nil {
				m.fail(fmt.Errorf("%s seed %d: %w", cfg.label, f.tunerSeed(f.rounds), err))
				continue
			}
			if r >= f.sc.tuneRounds {
				continue
			}
			if cfg.sourceFed {
				transfer = append(transfer, res.BestY)
			} else {
				baseline = append(baseline, res.BestY)
			}
		}
		f.rounds++
		if r == f.sc.tuneRounds-1 {
			fixedWall = time.Since(start).Seconds()
		}
	}
	m.elapsed = time.Since(start).Seconds()
	m.qualitySum, m.qualityN = mean(transfer), 1
	m.counters["tune.wall_s"] = fixedWall
	m.counters["tune.best_y_mean"] = mean(transfer)
	m.counters["tune.tla_speedup"] = ratio(mean(baseline), mean(transfer))
	return m
}

// verify: a run repeated at one seed must reproduce its best objective
// bit for bit. tla_speedup is reported, not asserted: at a budget of 10
// a handful of seeds is too few for transfer learning to win every time
// (it read below 1 on about three seeds in ten while this was written).
func (f *tuneFixture) verify(m *measurement) {
	for _, cfg := range []tuneConfig{tuneConfigs[0], tuneConfigs[3]} {
		a, errA := f.tune(cfg, f.tunerSeed(0), nil, nil, 0)
		b, errB := f.tune(cfg, f.tunerSeed(0), nil, nil, 0)
		var err error
		if errA != nil || errB != nil || a.BestY != b.BestY {
			err = fmt.Errorf("%s is not reproducible at seed %d", cfg.label, f.tunerSeed(0))
		}
		m.check(err)
	}
}
