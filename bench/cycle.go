package main

import (
	"context"
	"math/rand"
	"sync/atomic"
	"time"

	"gptunecrowd/internal/crowd"
	"gptunecrowd/internal/suggest"
)

const cycleProblem = "cycle"

// cycleFixture is session_cycle: more tasks than the model cache holds,
// visited round-robin by clients that really report their results back.
type cycleFixture struct {
	d       *deployment
	sc      scale
	seed    int64
	history []*pointSet // per task
}

func setupCycle(sc scale, seed int64) (fixture, error) {
	d, err := newSingle(crowd.Config{SuggestSeed: seed}, unitSquare(), []string{cycleProblem})
	if err != nil {
		return nil, err
	}
	f := &cycleFixture{d: d, sc: sc, seed: seed, history: make([]*pointSet, sc.cycleTasks)}
	rng := rand.New(rand.NewSource(seed))
	var all []crowd.FuncEval
	for t := range f.history {
		evals := randomSamples(rng, cycleProblem, taskParams(t), sc.cyclePerTask)
		f.history[t] = newPointSet()
		f.history[t].addSamples(evals)
		all = append(all, evals...)
	}
	// One batch: consensus scoring compares each sample with the store as
	// it was before the batch, so seeding stays linear in the store size.
	if _, err := d.client.Upload(all); err != nil {
		d.close()
		return nil, err
	}
	return f, nil
}

func (f *cycleFixture) close() { f.d.close() }

// measure visits tasks in order, round after round, until the window
// closes or the fixed work (cycleRounds rounds) is done — whichever
// comes first, so a faster build is not handed ever-larger histories.
func (f *cycleFixture) measure(seconds float64, tr *tracer) *measurement {
	ctx := context.Background()
	before := f.d.suggestStats()
	shedBefore := f.d.shed()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	total := int64(f.sc.cycleRounds * f.sc.cycleTasks)
	var next atomic.Int64

	m := runClients(clients, func(c int, log *clientLog) {
		rng := rand.New(rand.NewSource(f.seed + 1000*int64(c+1)))
		for time.Now().Before(deadline) {
			i := next.Add(1) - 1
			if i >= total {
				return
			}
			t := int(i) % f.sc.cycleTasks
			task := taskParams(t)
			visit := tr.start(tr.newTrace(), 0, "op.visit")
			t0 := time.Now()

			sg := tr.start(visit.s.Trace, visit.id(), "op.suggest")
			resp, err := f.d.client.SuggestRemote(ctx, crowd.SuggestRequest{
				TuningProblemName: cycleProblem, TaskParams: task, Batch: f.sc.cycleBatch,
			})
			sg.end()
			if err == nil {
				err = checkSuggest(resp, f.sc.cycleBatch, false, f.history[t])
			}
			if err != nil {
				visit.end()
				log.fail(err)
				continue
			}
			// Evaluate the analytic objective at each proposal and report
			// all of them back in one call, which retires the liars.
			results := make([]crowd.FuncEval, 0, f.sc.cycleBatch)
			for _, p := range proposalsOf(resp, f.sc.cycleBatch) {
				x, y, _ := xy(p)
				results = append(results, sampleAt(rng, cycleProblem, task, x, y))
				log.quality(proposalScore(x, y, float64(t)))
			}
			up := tr.start(visit.s.Trace, visit.id(), "op.upload")
			ids, err := f.d.client.Upload(results)
			up.end()
			d := time.Since(t0)
			visit.end()
			if err == nil {
				err = checkUpload(ids, len(results))
			}
			if err != nil {
				log.fail(err)
				continue
			}
			f.history[t].addSamples(results)
			log.ok("visit", d, true)
		}
	})

	m.counters = suggestCounters(before, f.d.suggestStats())
	m.counters["crowd.shed_total"] = float64(f.d.shed() - shedBefore)
	return m
}

func (f *cycleFixture) verify(m *measurement) {}

// suggestCounters turns two suggest.Stats snapshots into the per-layer
// counts a window moved.
func suggestCounters(before, after suggest.Stats) map[string]float64 {
	return map[string]float64{
		"suggest.cache_hit_ratio":      ratio(float64(after.CacheHits-before.CacheHits), float64(after.Requests-before.Requests)),
		"suggest.full_fits":            float64(after.FullFits - before.FullFits),
		"suggest.incremental_observes": float64(after.IncrementalObserves - before.IncrementalObserves),
		"suggest.evictions":            float64(after.Evictions - before.Evictions),
		"suggest.stale_waits":          float64(after.StaleWaits - before.StaleWaits),
		"suggest.liars_retired":        float64(after.LiarsRetired - before.LiarsRetired),
		"suggest.liars_expired":        float64(after.LiarsExpired - before.LiarsExpired),
	}
}
