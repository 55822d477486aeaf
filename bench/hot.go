package main

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gptunecrowd/internal/crowd"
)

const hotProblem = "hot"

// hotFixture is suggest_hot_n*: one server, one problem, one task, a
// warm fitted model, and a timer that keeps uploading.
type hotFixture struct {
	d       *deployment
	sc      scale
	rng     *rand.Rand // upload stream; used by the timer goroutine only
	history *pointSet
	acked   atomic.Int64 // samples the server has acknowledged so far
}

func setupHot(sc scale, seed int64, n int) (fixture, error) {
	d, err := newSingle(crowd.Config{SuggestSeed: seed}, unitSquare(), []string{hotProblem})
	if err != nil {
		return nil, err
	}
	f := &hotFixture{d: d, sc: sc, rng: rand.New(rand.NewSource(seed)), history: newPointSet()}
	evals := randomSamples(f.rng, hotProblem, nil, n)
	if _, err := d.client.Upload(evals); err != nil {
		d.close()
		return nil, err
	}
	f.history.addSamples(evals)
	f.acked.Store(int64(n))
	// Warm-up: the first request pays the full fit, so every timed
	// request is a cache hit.
	if _, err := d.client.SuggestRemote(context.Background(), crowd.SuggestRequest{TuningProblemName: hotProblem}); err != nil {
		d.close()
		return nil, err
	}
	return f, nil
}

func (f *hotFixture) close() { f.d.close() }

func (f *hotFixture) measure(seconds float64, tr *tracer) *measurement {
	ctx := context.Background()
	before := f.d.suggestStats()
	shedBefore := f.d.shed()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))

	// Uploads are time-based, not reply-based, so the history size at
	// time t is the same on a fast build and a slow one.
	stop := make(chan struct{})
	var uploader sync.WaitGroup
	var uploadLog clientLog
	uploader.Add(1)
	go func() {
		defer uploader.Done()
		tick := time.NewTicker(f.sc.uploadEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			ev := randomSample(f.rng, hotProblem, nil)
			sp := tr.start(tr.newTrace(), 0, "op.upload")
			t0 := time.Now()
			ids, err := f.d.client.Upload([]crowd.FuncEval{ev})
			d := time.Since(t0)
			sp.end()
			if err == nil {
				err = checkUpload(ids, 1)
			}
			if err != nil {
				uploadLog.fail(err)
				continue
			}
			f.history.addSamples([]crowd.FuncEval{ev})
			f.acked.Add(1)
			uploadLog.ok("upload", d, false)
		}
	}()

	req := crowd.SuggestRequest{TuningProblemName: hotProblem}
	m := runClients(clients, func(c int, log *clientLog) {
		for time.Now().Before(deadline) {
			acked := f.acked.Load()
			sp := tr.start(tr.newTrace(), 0, "op.suggest")
			t0 := time.Now()
			resp, err := f.d.client.SuggestRemote(ctx, req)
			d := time.Since(t0)
			sp.end()
			if err == nil {
				err = checkSuggest(resp, 1, true, f.history)
			}
			if err != nil {
				log.fail(err)
				continue
			}
			log.ok("suggest", d, true)
			x, y, _ := xy(resp.TuningParams)
			log.quality(proposalScore(x, y, 0))
			// Lag against what was acknowledged before the request left:
			// a model may legitimately trail uploads that raced it.
			log.lags = append(log.lags, math.Max(0, float64(acked-int64(resp.ModelVersion))))
		}
	})
	close(stop)
	uploader.Wait()
	// The timer's uploads are secondary operations: their failures count,
	// their latencies are reported by type only.
	m.addCounts(&uploadLog)
	m.byKind["upload"] = uploadLog.byKind["upload"]
	m.counters = suggestCounters(before, f.d.suggestStats())
	m.counters["crowd.shed_total"] = float64(f.d.shed() - shedBefore)
	m.counters["suggest.model_lag_p95_samples"] = percentile(m.lags, 0.95)
	return m
}

func (f *hotFixture) verify(m *measurement) {}
