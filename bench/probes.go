package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"gptunecrowd"
	"gptunecrowd/internal/apps/scalapack"
	"gptunecrowd/internal/core"
	"gptunecrowd/internal/crowd"
	"gptunecrowd/internal/gp"
	"gptunecrowd/internal/historydb"
	"gptunecrowd/internal/kernel"
	"gptunecrowd/internal/lcm"
	"gptunecrowd/internal/linalg"
	"gptunecrowd/internal/machine"
	"gptunecrowd/internal/replog"
	"gptunecrowd/internal/sample"
	"gptunecrowd/internal/suggest"
	"gptunecrowd/internal/surrogate"
)

// The suggest service's search settings (suggest.Config defaults); the
// replayed rungs of the ladder must search exactly as the server does.
const (
	serveCandidates = 128
	serveDEGens     = 12
	serveRestarts   = 2
)

var serveSearch = core.SearchOptions{Candidates: serveCandidates, DEGens: serveDEGens}

// prober runs the per-layer probes: each times calls into one layer's
// public functions on inputs generated from the seed, and reports the
// median of a few repetitions.
type prober struct {
	sc     scale
	seed   int64
	tr     *tracer
	values map[string]float64

	// The numeric probes' samples and fitted models, reused by the
	// ladders so a large fit is paid for once.
	X                      [][]float64
	Y                      []float64
	modelSmall, modelLarge *gp.GP
}

func (p *prober) reps(n int) int {
	if p.sc.probeReps < n {
		return p.sc.probeReps
	}
	return n
}

// us and ms record a duration measured in seconds.
func (p *prober) us(name string, seconds float64) { p.values[name] = seconds * 1e6 }
func (p *prober) ms(name string, seconds float64) { p.values[name] = seconds * 1e3 }

// runProbes measures every probe metric. The same probes run in every
// workload's traced pass, so each layer has a number beside every
// end-to-end change, whichever workload the change was aimed at.
func runProbes(sc scale, seed int64, tr *tracer) (map[string]float64, error) {
	if tr == nil {
		tr = newTracer("probes")
	}
	p := &prober{sc: sc, seed: seed, tr: tr, values: make(map[string]float64)}
	steps := []func() error{
		p.numeric, p.session, p.service, p.ladders, p.repository, p.logs, p.cluster, p.transfer,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return p.values, nil
}

// fitGP fits the way the suggest service does.
func (p *prober) fitGP(X [][]float64, Y []float64) (*gp.GP, error) {
	return gp.Fit(X, Y, gp.Options{Seed: p.seed, Restarts: serveRestarts})
}

func historyOf(X [][]float64, Y []float64) *core.History {
	h := &core.History{Samples: make([]core.Sample, len(X))}
	for i := range X {
		h.Samples[i] = core.Sample{ParamU: X[i], Y: Y[i], Proposer: "history"}
	}
	return h
}

// numeric probes linalg, kernel, gp and the acquisition search at the
// two hot history sizes (and the fit alone at the cold-task size).
func (p *prober) numeric() error {
	rng := rand.New(rand.NewSource(p.seed + 11))
	nL, nS := p.sc.hotLarge, p.sc.hotSmall
	X, Y := unitXY(rng, nL)
	sp := unitSquare()

	// kernel and linalg at the large size, on fixed plausible
	// hyperparameters so the work does not depend on a fit's outcome.
	kern := kernel.New(kernel.Matern52, 2)
	hyper := kernel.NewHyper(2)
	for d := range hyper.LogLength {
		hyper.LogLength[d] = math.Log(0.3)
	}
	cand := sample.LatinHypercube(serveCandidates, 2, rng)
	p.ms("kernel.matrix_ms_n256", medianOf(p.reps(5), func() { kern.MatrixWorkers(X, hyper, 0) }))
	p.ms("kernel.matrix_grads_ms_n256", medianOf(p.reps(5), func() { kern.MatrixGradsWorkers(X, hyper, 0) }))
	p.us("kernel.cross_us_per_point_n256", medianOf(p.reps(5), func() { kern.CrossMatrixWorkers(cand, X, hyper, 0) })/serveCandidates)

	K := kern.MatrixWorkers(X, hyper, 0).AddDiag(1e-3)
	var chol *linalg.Cholesky
	var cholErr error
	factor := medianOf(p.reps(5), func() { chol, cholErr = linalg.NewCholesky(K) })
	if cholErr != nil {
		return fmt.Errorf("cholesky probe: %w", cholErr)
	}
	p.ms("linalg.cholesky_factor_ms_n256", factor)
	// n^3/3 floating-point operations, computed from the size, not counted.
	p.values["linalg.cholesky_gflops_n256"] = float64(nL) * float64(nL) * float64(nL) / 3 / factor / 1e9
	p.us("linalg.solve_vec_us_n256", medianOf(p.reps(9), func() { chol.SolveVec(Y) }))
	// Append the last row to the factor of the leading block.
	lead := linalg.NewMatrix(nL-1, nL-1)
	for i := 0; i < nL-1; i++ {
		copy(lead.Row(i), K.Row(i)[:nL-1])
	}
	leadChol, err := linalg.NewCholesky(lead)
	if err != nil {
		return fmt.Errorf("cholesky probe: %w", err)
	}
	border, diag := append([]float64(nil), K.Row(nL - 1)[:nL-1]...), K.At(nL-1, nL-1)
	appendRow := make([]float64, p.reps(9))
	for i := range appendRow {
		c := leadChol.Clone()
		t0 := time.Now()
		err := c.AppendRow(border, diag)
		appendRow[i] = time.Since(t0).Seconds()
		if err != nil {
			return fmt.Errorf("cholesky append probe: %w", err)
		}
	}
	p.us("linalg.cholesky_append_us_n256", median(appendRow))

	// gp: fit, clone, observe, predict.
	fit := func(n, reps int) (*gp.GP, float64, error) {
		var g *gp.GP
		var err error
		d := make([]float64, reps)
		for i := range d {
			t0 := time.Now()
			g, err = p.fitGP(X[:n], Y[:n])
			d[i] = time.Since(t0).Seconds()
			if err != nil {
				return nil, 0, fmt.Errorf("gp fit probe at n=%d: %w", n, err)
			}
		}
		return g, median(d), nil
	}
	_, tTiny, err := fit(p.sc.fitTiny, p.reps(5))
	if err != nil {
		return err
	}
	gS, tS, err := fit(nS, p.reps(3))
	if err != nil {
		return err
	}
	gL, tL, err := fit(nL, 1)
	if err != nil {
		return err
	}
	p.X, p.Y, p.modelSmall, p.modelLarge = X, Y, gS, gL
	p.ms("gp.fit_ms_n16", tTiny)
	p.ms("gp.fit_ms_n64", tS)
	p.ms("gp.fit_ms_n256", tL)

	means, stds := make([]float64, len(cand)), make([]float64, len(cand))
	extra := []float64{rng.Float64(), rng.Float64()}
	for _, at := range []struct {
		suffix string
		g      *gp.GP
		n      int
	}{{"_n64", gS, nS}, {"_n256", gL, nL}} {
		g := at.g
		p.us("gp.clone_us"+at.suffix, medianOf(p.reps(9), func() { g.Clone() }))
		observe := make([]float64, p.reps(9))
		for i := range observe {
			c := g.Clone()
			t0 := time.Now()
			err := c.Observe(extra, objective(extra[0], extra[1], 0))
			observe[i] = time.Since(t0).Seconds()
			if err != nil {
				return fmt.Errorf("gp observe probe: %w", err)
			}
		}
		p.us("gp.observe_us"+at.suffix, median(observe))
		p.us("gp.predict_us_per_point"+at.suffix, medianOf(p.reps(9), func() { g.PredictBatchInto(cand, means, stds, 0) })/float64(len(cand)))

		hist := historyOf(X[:at.n], Y[:at.n])
		srng := rand.New(rand.NewSource(p.seed + 12))
		p.us("core.search_us"+at.suffix, medianOf(p.reps(15), func() {
			core.SearchNext(g, sp, core.EI{}, hist, srng, serveSearch)
		}))
	}

	pool := make([][]float64, serveCandidates)
	for i := range pool {
		pool[i] = make([]float64, 2)
	}
	p.us("core.lhs_us", medianOf(p.reps(15), func() { sample.LatinHypercubeInto(pool, rng) }))

	// Real nesting: a timing wrapper around the GP records one span per
	// predictor call inside SearchNext, so the search's self time is its
	// span minus what those calls cover.
	hist := historyOf(X[:nS], Y[:nS])
	srng := rand.New(rand.NewSource(p.seed + 13))
	var calls int
	searches := p.reps(9)
	for i := 0; i < searches; i++ {
		trace := p.tr.newTrace()
		search := p.tr.start(trace, 0, "core.search")
		tp := &timedPredictor{inner: gS, tr: p.tr, trace: trace, parent: search.id()}
		core.SearchNext(tp, sp, core.EI{}, hist, srng, serveSearch)
		search.end()
		calls += tp.points
	}
	spans := p.tr.snapshot()
	self := selfTimes(spans)
	var searchSelf, searchTotal []float64
	for _, s := range spans {
		if s.Name == "core.search" {
			searchSelf = append(searchSelf, float64(self[s.Span])/1e9)
			searchTotal = append(searchTotal, float64(s.EndNs-s.StartNs)/1e9)
		}
	}
	p.us("core.search_self_us", median(searchSelf))
	p.values["core.search_predict_calls"] = float64(calls) / float64(searches)
	p.values["gp.predict_share"] = 1 - ratio(median(searchSelf), median(searchTotal))
	return nil
}

// timedPredictor wraps a model with one span per predictor call. It
// implements core.BatchPredictor, so SearchNext takes the same batched
// prescreen path it takes on the bare GP.
type timedPredictor struct {
	inner  core.BatchPredictor
	tr     *tracer
	trace  int64
	parent int64

	mu     sync.Mutex
	points int // points predicted: single calls plus batch rows
}

func (t *timedPredictor) Predict(x []float64) (float64, float64) {
	sp := t.tr.start(t.trace, t.parent, "gp.predict")
	m, s := t.inner.Predict(x)
	sp.end()
	t.mu.Lock()
	t.points++
	t.mu.Unlock()
	return m, s
}

func (t *timedPredictor) PredictBatchInto(X [][]float64, means, stds []float64, workers int) {
	sp := t.tr.start(t.trace, t.parent, "gp.predict_batch")
	t.inner.PredictBatchInto(X, means, stds, workers)
	sp.end()
	t.mu.Lock()
	t.points += len(X)
	t.mu.Unlock()
}

// session probes the tuning loop itself: one NoTLA session on the
// serving objective, its step time, and what is left of a step once the
// tuner's own fit and search timers are subtracted.
func (p *prober) session() error {
	problem := &gptunecrowd.Problem{
		Name:       "probe-session",
		ParamSpace: unitSquare(),
		Evaluator: gptunecrowd.EvaluatorFunc(func(_, params map[string]interface{}) (float64, error) {
			x, y, _ := xy(params)
			return objective(x, y, 0), nil
		}),
	}
	reg := gptunecrowd.NewMetrics()
	s, err := gptunecrowd.NewTuningSession(problem, nil, gptunecrowd.TuneOptions{
		Budget: 2 * p.sc.fitTiny, Seed: p.seed, Algorithm: "NoTLA", Metrics: reg,
	})
	if err != nil {
		return fmt.Errorf("session probe: %w", err)
	}
	var steps []float64
	for !s.Done() {
		t0 := time.Now()
		if err := s.Step(); err != nil {
			return fmt.Errorf("session probe: %w", err)
		}
		steps = append(steps, time.Since(t0).Seconds())
	}
	total := 0.0
	for _, d := range steps {
		total += d
	}
	modelled := reg.Histogram("tuner_fit_seconds", "", nil).Sum() + reg.Histogram("tuner_search_seconds", "", nil).Sum()
	p.ms("core.session_step_ms", median(steps))
	p.ms("core.session_self_ms", (total-modelled)/float64(len(steps)))
	return nil
}

// memorySource is a suggest.Source over samples the benchmark holds in
// memory, with a span around every History call — the real nesting an
// interface lets the benchmark inject without editing the program.
type memorySource struct {
	X      [][]float64
	Y      []float64
	tr     *tracer
	trace  int64
	parent int64
}

func (m *memorySource) History(_ context.Context, _ string, _ map[string]interface{}) (*suggest.Snapshot, error) {
	sp := m.tr.start(m.trace, m.parent, "suggest.source_history")
	defer sp.end()
	// The service takes ownership of the slices.
	X := make([][]float64, len(m.X))
	for i := range m.X {
		X[i] = append([]float64(nil), m.X[i]...)
	}
	return &suggest.Snapshot{X: X, Y: append([]float64(nil), m.Y...), Space: unitSquare(), Version: uint64(len(X))}, nil
}

// service probes a suggest.Service the benchmark builds itself: the
// cold-task miss and the batch path.
func (p *prober) service() error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(p.seed + 21))

	// Miss: a task the cache has never seen, at the cold-task size —
	// snapshot, full fit, search.
	X, Y := unitXY(rng, p.sc.fitTiny)
	src := &memorySource{X: X, Y: Y, tr: p.tr}
	svc := suggest.New(src, suggest.Config{Seed: p.seed})
	miss := make([]float64, p.reps(5)+1)
	for i := range miss {
		src.trace = p.tr.newTrace()
		sp := p.tr.start(src.trace, 0, "suggest.miss")
		src.parent = sp.id()
		t0 := time.Now()
		_, err := svc.Suggest(ctx, suggest.Request{Problem: "probe", Task: taskParams(i)})
		miss[i] = time.Since(t0).Seconds()
		sp.end()
		if err != nil {
			return fmt.Errorf("suggest miss probe: %w", err)
		}
	}
	p.ms("suggest.miss_ms", median(miss[1:]))

	// Batch of four on a warm model with no liars pending: clone, then
	// four searches with constant-liar updates between them.
	X, Y = unitXY(rng, p.sc.hotSmall)
	warm := suggest.New(&memorySource{X: X, Y: Y}, suggest.Config{Seed: p.seed})
	batch := make([]float64, p.reps(5))
	for i := range batch {
		task := taskParams(i)
		if _, err := warm.Suggest(ctx, suggest.Request{Problem: "probe", Task: task}); err != nil {
			return fmt.Errorf("suggest batch probe: %w", err)
		}
		t0 := time.Now()
		_, err := warm.Suggest(ctx, suggest.Request{Problem: "probe", Task: task, Batch: 4})
		batch[i] = time.Since(t0).Seconds()
		if err != nil {
			return fmt.Errorf("suggest batch probe: %w", err)
		}
	}
	p.ms("suggest.batch4_ms", median(batch))
	return nil
}

// rung is one timed entry point of a ladder or of a paired comparison.
type rung struct {
	name string
	fn   func() error
}

// interleave times every rung once per round and returns each rung's
// median in seconds. The starting rung rotates from round to round, so
// whatever recurs with the round — a GC cycle, a warm cache line — is
// spread over all rungs instead of always landing on the same one. The
// first round warms pools and connections and is dropped. Each rung is
// one span; the spans of a round share a trace.
func (p *prober) interleave(rounds int, rungs []rung) ([]float64, error) {
	samples := make([][]float64, len(rungs))
	for i := 0; i <= rounds; i++ {
		trace := p.tr.newTrace()
		for k := range rungs {
			j := (i + k) % len(rungs)
			sp := p.tr.start(trace, 0, rungs[j].name)
			t0 := time.Now()
			err := rungs[j].fn()
			dt := time.Since(t0).Seconds()
			sp.end()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", rungs[j].name, err)
			}
			if i > 0 {
				samples[j] = append(samples[j], dt)
			}
		}
	}
	medians := make([]float64, len(rungs))
	for j := range samples {
		medians[j] = median(samples[j])
	}
	return medians, nil
}

// ladders replays one suggest request at successively deeper entry
// points — client, handler, service, search — at both hot history
// sizes, and closes the ledger. A rung's self time is its time minus
// the rung below.
func (p *prober) ladders() error {
	// The smallest authenticated endpoint on an empty store: what one
	// HTTP round trip through client, listener, middleware and auth
	// costs with almost nothing behind it.
	empty, err := newSingle(crowd.Config{SuggestSeed: p.seed}, unitSquare(), nil)
	if err != nil {
		return err
	}
	var rtErr error
	roundTrip := medianOf(p.reps(60), func() {
		if _, err := empty.client.Problems(); err != nil {
			rtErr = err
		}
	})
	empty.close()
	if rtErr != nil {
		return fmt.Errorf("round-trip probe: %w", rtErr)
	}
	p.us("crowd.http_roundtrip_us", roundTrip)

	if err := p.ladder("_n64", p.modelSmall, p.reps(30), roundTrip); err != nil {
		return fmt.Errorf("ladder_n64: %w", err)
	}
	if err := p.ladder("_n256", p.modelLarge, p.reps(12), roundTrip); err != nil {
		return fmt.Errorf("ladder_n256: %w", err)
	}
	return nil
}

// ladder runs on the samples the numeric probes fitted model on: the
// server fits the same data with the same seed and options, so the
// replayed search rung scores exactly the model the server serves.
func (p *prober) ladder(suffix string, model *gp.GP, rounds int, roundTrip float64) error {
	ctx := context.Background()
	n := model.NumSamples()
	X, Y := p.X[:n], p.Y[:n]
	d, err := newSingle(crowd.Config{SuggestSeed: p.seed}, unitSquare(), []string{hotProblem})
	if err != nil {
		return err
	}
	defer d.close()
	evals := make([]crowd.FuncEval, n)
	for i := range evals {
		evals[i] = crowd.FuncEval{
			TuningProblemName: hotProblem,
			TuningParams:      map[string]interface{}{"x": X[i][0], "y": X[i][1]},
			Output:            Y[i],
		}
	}
	if _, err := d.client.Upload(evals); err != nil {
		return err
	}
	req := crowd.SuggestRequest{TuningProblemName: hotProblem}
	if _, err := d.client.SuggestRemote(ctx, req); err != nil {
		return err
	}
	srv := d.servers[0]
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hist := historyOf(X, Y)
	srng := rand.New(rand.NewSource(p.seed + 32))

	rungs := []rung{
		{"ladder.client", func() error {
			_, err := d.client.SuggestRemote(ctx, req)
			return err
		}},
		{"ladder.handler", func() error {
			r := httptest.NewRequest(http.MethodPost, "/api/v1/suggest", bytes.NewReader(body))
			r.Header.Set("X-Api-Key", d.client.APIKey)
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, r)
			if w.Code != http.StatusOK {
				return fmt.Errorf("status %d", w.Code)
			}
			return nil
		}},
		{"ladder.service", func() error {
			_, err := srv.SuggestService().Suggest(ctx, suggest.Request{Problem: hotProblem})
			return err
		}},
		{"ladder.search", func() error {
			core.SearchNext(model, unitSquare(), core.EI{}, hist, srng, serveSearch)
			return nil
		}},
	}
	if suffix == "_n64" {
		// A suggest.Service the benchmark builds over the same samples:
		// if it does not cost what the server's own does, replays built
		// in the benchmark do not represent the server.
		replay := suggest.New(&memorySource{X: X, Y: Y}, suggest.Config{Seed: p.seed})
		if _, err := replay.Suggest(ctx, suggest.Request{Problem: hotProblem}); err != nil {
			return err
		}
		rungs = append(rungs, rung{"ladder.service_replay", func() error {
			_, err := replay.Suggest(ctx, suggest.Request{Problem: hotProblem})
			return err
		}})
	}
	m, err := p.interleave(rounds, rungs)
	if err != nil {
		return err
	}
	client, handler, service, search := m[0], m[1], m[2], m[3]
	p.us("suggest.hit_us"+suffix, service)
	if suffix == "_n64" {
		p.us("crowd.suggest_handler_self_us", handler-service)
		p.us("suggest.self_us", service-search)
		p.values["ledger.replay_agreement"] = ratio(m[4], service)
	}
	// The ledger: named leaves against the client's time. Handler,
	// service and search telescope, so what can go missing is client-side
	// time the independent round-trip probe does not explain.
	leaves := roundTrip + math.Max(handler-service, 0) + math.Max(service-search, 0) + search
	p.values["ledger.unattributed_ratio"+suffix] = math.Max(0, 1-ratio(leaves, client))
	return nil
}

// repository probes the crowd API and historydb at the mixed workloads'
// store size.
func (p *prober) repository() error {
	rng := rand.New(rand.NewSource(p.seed + 41))
	problems := make([]string, p.sc.mixProblems)
	for i := range problems {
		problems[i] = mixProblem(i)
	}
	d, err := newSingle(crowd.Config{SuggestSeed: p.seed}, unitSquare(), problems)
	if err != nil {
		return err
	}
	defer d.close()
	var all []crowd.FuncEval
	for i := 0; i < p.sc.mixSamples; i++ {
		all = append(all, randomSample(rng, problems[i%len(problems)], taskParams((i/len(problems))%p.sc.mixTasks)))
	}
	if _, err := d.client.Upload(all); err != nil {
		return err
	}
	var failed error
	note := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	coll := d.servers[0].Store().Collection("func_evals")
	p.ms("historydb.find_all_ms", medianOf(p.reps(5), func() { _, err := coll.Find(nil); note(err) }))
	p.ms("historydb.find_filtered_ms", medianOf(p.reps(5), func() {
		_, err := coll.Find(historydb.Eq("tuning_problem_name", problems[0]))
		note(err)
	}))
	p.ms("crowd.problems_ms", medianOf(p.reps(5), func() { _, err := d.client.Problems(); note(err) }))
	p.ms("crowd.query_ms", medianOf(p.reps(5), func() {
		_, err := d.client.QueryWithParamFilter(problems[0], crowd.ConfigurationSpace{}, historydb.Eq("task_parameters.t", 0.0), 0)
		note(err)
	}))
	p.ms("crowd.upload_ms_per_sample", medianOf(p.reps(5), func() {
		_, err := d.client.Upload(randomSamples(rng, problems[0], taskParams(0), 2))
		note(err)
	})/2)

	docs, err := coll.Find(historydb.Eq("tuning_problem_name", problems[0]))
	note(err)
	if len(docs) > 100 {
		docs = docs[:100]
	}
	if len(docs) > 0 {
		p.us("historydb.insert_many_us_per_doc", medianOf(p.reps(5), func() {
			_, err := historydb.NewCollection("probe").InsertMany(docs)
			note(err)
		})/float64(len(docs)))
	}
	return failed
}

// logs probes replog appends, on disk and in memory.
func (p *prober) logs() error {
	payload, err := json.Marshal(map[string]interface{}{
		"op": "insert", "docs": []interface{}{randomSample(rand.New(rand.NewSource(p.seed)), "probe", taskParams(0))},
	})
	if err != nil {
		return err
	}
	dir, rm, err := tempDir("replog")
	if err != nil {
		return err
	}
	defer rm()
	for _, at := range []struct{ name, dir string }{{"replog.append_us", dir}, {"replog.append_mem_us", ""}} {
		lg, err := replog.Open(at.dir, replog.Options{Name: "probe"})
		if err != nil {
			return err
		}
		const appends = 200
		var failed error
		per := medianOf(p.reps(5), func() {
			for i := 0; i < appends; i++ {
				if _, err := lg.Append(payload); err != nil {
					failed = err
				}
			}
		}) / appends
		lg.Close()
		if failed != nil {
			return fmt.Errorf("%s: %w", at.name, failed)
		}
		p.us(at.name, per)
	}
	return nil
}

// cluster probes what the deployed topology adds: the coordinator hop
// on a read, and the commit barrier on a write.
func (p *prober) cluster() error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(p.seed + 51))
	const writeProblem = "probe-writes"
	problems := []string{hotProblem, writeProblem}
	seedSamples := randomSamples(rng, hotProblem, nil, p.sc.hotSmall)
	req := crowd.SuggestRequest{TuningProblemName: hotProblem}

	// direct binds a client straight to a shard's leader, past the
	// coordinator, with the cluster-wide key.
	direct := func(d *deployment) *crowd.Client {
		c := crowd.NewClient(d.leaders[0].Advertise(), d.client.APIKey)
		c.HTTP = d.client.HTTP
		return c
	}
	solo, err := newCluster(crowd.Config{SuggestSeed: p.seed}, unitSquare(), problems, 1, 0)
	if err != nil {
		return err
	}
	defer solo.close()
	// Same store size on both leaders, one of them with a follower in
	// its commit quorum.
	paired, err := newCluster(crowd.Config{SuggestSeed: p.seed}, unitSquare(), problems, 1, 1)
	if err != nil {
		return err
	}
	defer paired.close()
	for _, d := range []*deployment{solo, paired} {
		if _, err := d.client.Upload(seedSamples); err != nil {
			return err
		}
		if _, err := d.client.SuggestRemote(ctx, req); err != nil {
			return err
		}
	}
	soloDirect, pairedDirect := direct(solo), direct(paired)
	suggestVia := func(c *crowd.Client) func() error {
		return func() error { _, err := c.SuggestRemote(ctx, req); return err }
	}
	uploadVia := func(c *crowd.Client) func() error {
		return func() error { _, err := c.Upload(randomSamples(rng, writeProblem, nil, 1)); return err }
	}
	m, err := p.interleave(p.reps(40), []rung{
		{"cluster.suggest_via_coordinator", suggestVia(solo.client)},
		{"cluster.suggest_direct", suggestVia(soloDirect)},
		{"cluster.upload_replicated", uploadVia(pairedDirect)},
		{"cluster.upload_alone", uploadVia(soloDirect)},
	})
	if err != nil {
		return err
	}
	p.us("cluster.coordinator_hop_us", m[0]-m[1])
	p.ms("cluster.commit_barrier_ms", m[2]-m[3])
	return nil
}

// transfer probes lcm, tla and the surrogate pool on the tune_tla
// problem: one source task of tuneSource samples, a target history one
// budget long.
func (p *prober) transfer() error {
	app := scalapack.New(machine.CoriHaswell(8))
	problem := app.Problem()
	rng := rand.New(rand.NewSource(p.seed + 61))
	collect := func(task map[string]interface{}, n int) ([][]float64, []float64, *gptunecrowd.History) {
		var X [][]float64
		var Y []float64
		h := &gptunecrowd.History{}
		for len(X) < n {
			u := core.RandomPoint(problem.ParamSpace, rng)
			params := problem.ParamSpace.Decode(u)
			y, err := problem.Evaluator.Evaluate(task, params)
			if err != nil {
				continue
			}
			X, Y = append(X, u), append(Y, y)
			h.Append(gptunecrowd.Sample{ParamU: u, Params: params, Y: y})
		}
		return X, Y, h
	}
	srcX, srcY, _ := collect(tuneSourceTask, p.sc.tuneSource)
	tgtX, tgtY, history := collect(tuneTargetTask, p.sc.tuneBudget)
	sources := []*gptunecrowd.SourceTask{gptunecrowd.NewSource("m=n=10000", srcX, srcY)}

	var model *lcm.Model
	var fitErr error
	p.ms("lcm.fit_ms", medianOf(p.reps(3), func() {
		model, fitErr = lcm.Fit([][][]float64{srcX, tgtX}, [][]float64{srcY, tgtY}, lcm.Options{Seed: p.seed})
	}))
	if fitErr != nil {
		return fmt.Errorf("lcm fit probe: %w", fitErr)
	}
	cand := core.LHSPoints(problem.ParamSpace, serveCandidates, rng)
	p.us("lcm.predict_us_per_point", medianOf(p.reps(5), func() {
		for _, x := range cand {
			if _, _, err := model.Predict(1, x); err != nil {
				fitErr = err
			}
		}
	})/float64(len(cand)))
	if fitErr != nil {
		return fmt.Errorf("lcm predict probe: %w", fitErr)
	}

	for _, at := range []struct{ metric, algorithm string }{
		{"tla.multitask_propose_ms", "Multitask(TS)"},
		{"tla.ensemble_propose_ms", "Ensemble(proposed)"},
	} {
		var err error
		p.ms(at.metric, medianOf(p.reps(3), func() {
			_, err = gptunecrowd.SuggestNext(problem, history, at.algorithm, sources, p.seed)
		}))
		if err != nil {
			return fmt.Errorf("%s: %w", at.metric, err)
		}
	}
	// The pool's bandit tries every arm once before it starts choosing,
	// so the mean over its first proposals (one per arm: gp, lcm, copula,
	// sgp, space-filling) is one sweep of the pool.
	const sweep = 5
	var err error
	p.ms("surrogate.pool_propose_ms", medianOf(p.reps(3), func() {
		var prop core.Proposer
		prop, err = surrogate.NewProposer(surrogate.KindAuto, surrogate.PoolConfig{Config: surrogate.Config{Sources: sources}})
		prng := rand.New(rand.NewSource(p.seed))
		for i := 0; i < sweep && err == nil; i++ {
			_, err = prop.Propose(&core.ProposeContext{
				Problem: problem, Task: tuneTargetTask, History: history,
				Rng: prng, Iter: history.Len(), Budget: 2 * p.sc.tuneBudget,
			})
		}
	})/sweep)
	if err != nil {
		return fmt.Errorf("surrogate pool probe: %w", err)
	}
	return nil
}
