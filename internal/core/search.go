package core

import (
	"math"
	"math/rand"
	"sync"

	"gptunecrowd/internal/optimize"
	"gptunecrowd/internal/parallel"
	"gptunecrowd/internal/sample"
	"gptunecrowd/internal/space"
)

// searchScratch recycles the per-call buffers of SearchNext — the
// candidate pool and its canonicalized copy (each one flat backing
// array resliced into rows), and the score/mean/std vectors of the
// batched prescreen — so steady-state suggestion serving is
// allocation-flat.
type searchScratch struct {
	flat   []float64
	pool   [][]float64
	scores []float64

	canonFlat   []float64
	canon       [][]float64
	means, stds []float64
}

func (sc *searchScratch) resize(n, dim int) {
	sc.flat, sc.pool = rows(sc.flat, sc.pool, n, dim)
	sc.canonFlat, sc.canon = rows(sc.canonFlat, sc.canon, n, dim)
	if cap(sc.scores) < n {
		sc.scores = make([]float64, n)
		sc.means = make([]float64, n)
		sc.stds = make([]float64, n)
	}
	sc.scores, sc.means, sc.stds = sc.scores[:n], sc.means[:n], sc.stds[:n]
}

// rows reslices flat into n rows of length dim, growing either buffer
// when it is too small.
func rows(flat []float64, rs [][]float64, n, dim int) ([]float64, [][]float64) {
	if cap(flat) < n*dim {
		flat = make([]float64, n*dim)
	}
	flat = flat[:n*dim]
	if cap(rs) < n {
		rs = make([][]float64, n)
	}
	rs = rs[:n]
	for i := range rs {
		rs[i] = flat[i*dim : (i+1)*dim]
	}
	return flat, rs
}

var searchPool = sync.Pool{New: func() interface{} { return new(searchScratch) }}

// canonPool recycles the canonicalization buffer of one acquisition
// evaluation; stored as *[]float64 so Put does not allocate.
var canonPool = sync.Pool{New: func() interface{} { b := make([]float64, 0, 32); return &b }}

// SearchOptions tunes the acquisition maximization.
type SearchOptions struct {
	Candidates int // random candidate pool size (default 256)
	DEGens     int // differential-evolution generations (default 30)
	// Feasible, when set, restricts the search to normalized points it
	// accepts (populated by the loop from Problem.Constraints).
	Feasible func(u []float64) bool
}

func (o *SearchOptions) defaults() {
	if o.Candidates == 0 {
		o.Candidates = 256
	}
	if o.DEGens == 0 {
		o.DEGens = 30
	}
}

// dedupTol is the per-coordinate distance within which a proposal
// repeats a point already in the history.
const dedupTol = 1e-9

// SearchNext maximizes the acquisition over the normalized parameter
// space and returns a canonicalized point not yet present in the
// history: a random-candidate prescreen seeds differential evolution,
// whose winner is snapped to the discrete grid. Falls back to random
// points if everything promising is a duplicate.
//
// The prescreen pool is scored through one PredictBatchInto call; DE
// scores its trial points with Predict, concurrently on the engine's
// worker count, so Predict must be safe for concurrent calls. Results
// are bit-identical for every worker count.
func SearchNext(surr BatchPredictor, sp *space.Space, acq Acquisition, h *History, rng *rand.Rand, opts SearchOptions) []float64 {
	opts.defaults()
	dim := sp.Dim()
	best := bestForAcq(h)
	neg := func(u []float64) float64 {
		// Canonicalize into a pooled buffer: the canonical point is only
		// read by Feasible/Predict and never retained, so it can be
		// recycled the moment this evaluation returns.
		bp := canonPool.Get().(*[]float64)
		c := *bp
		if cap(c) < dim {
			c = make([]float64, dim)
		}
		c = c[:dim]
		sp.CanonicalizeInto(u, c)
		f := math.Inf(1)
		if opts.Feasible == nil || opts.Feasible(c) {
			mean, std := surr.Predict(c)
			f = -acq.Score(mean, std, best)
		}
		*bp = c
		canonPool.Put(bp)
		return f
	}
	// Prescreen a candidate pool for DE seeds: canonicalize every
	// candidate, fetch the posterior for the whole pool in one batched
	// call, then score per slot. Each slot is written by one worker and
	// the top-8 selection scans them in pool order, so the seeds are
	// identical for every worker count. The pool rows live in recycled
	// scratch; DE copies its seed vectors, and every use below finishes
	// before the deferred Put.
	sc := searchPool.Get().(*searchScratch)
	defer searchPool.Put(sc)
	sc.resize(opts.Candidates, dim)
	pool, canon, scores, means, stds := sc.pool, sc.canon, sc.scores, sc.means, sc.stds
	sample.LatinHypercubeInto(pool, rng)
	parallel.For(len(pool), 0, func(i int) {
		sp.CanonicalizeInto(pool[i], canon[i])
	})
	surr.PredictBatchInto(canon, means, stds, 0)
	parallel.For(len(pool), 0, func(i int) {
		scores[i] = math.Inf(1)
		if opts.Feasible == nil || opts.Feasible(canon[i]) {
			scores[i] = -acq.Score(means[i], stds[i], best)
		}
	})
	type scored struct {
		u []float64
		f float64
	}
	top := make([]scored, 0, 8)
	for pi, u := range pool {
		f := scores[pi]
		if len(top) < 8 {
			top = append(top, scored{u, f})
			continue
		}
		worst := 0
		for i := range top {
			if top[i].f > top[worst].f {
				worst = i
			}
		}
		if f < top[worst].f {
			top[worst] = scored{u, f}
		}
	}
	seeds := make([][]float64, len(top))
	for i, s := range top {
		seeds[i] = s.u
	}
	lo := make([]float64, dim)
	hi := make([]float64, dim)
	for d := range hi {
		hi[d] = 1
	}
	res := optimize.DifferentialEvolution(neg, optimize.DEConfig{
		Lower:   lo,
		Upper:   hi,
		MaxGen:  opts.DEGens,
		Seeds:   seeds,
		RandSrc: rng,
	})
	u := sp.Canonicalize(res.X)
	if !h.Contains(u, dedupTol) {
		return u
	}
	// The optimum was already evaluated (common on small discrete
	// spaces): take the best non-duplicate from the prescreen pool,
	// else a fresh random point.
	bestAlt := []float64(nil)
	bestF := 0.0
	for _, s := range top {
		if math.IsInf(s.f, 1) {
			continue // infeasible or unscoreable candidate
		}
		c := sp.Canonicalize(s.u)
		if h.Contains(c, dedupTol) {
			continue
		}
		if bestAlt == nil || s.f < bestF {
			bestAlt, bestF = c, s.f
		}
	}
	if bestAlt != nil {
		return bestAlt
	}
	for i := 0; i < 64; i++ {
		u := make([]float64, dim)
		for d := range u {
			u[d] = rng.Float64()
		}
		c := sp.Canonicalize(u)
		if opts.Feasible != nil && !opts.Feasible(c) {
			continue
		}
		if !h.Contains(c, dedupTol) {
			return c
		}
	}
	// Space may be exhausted; return the optimum even though it repeats.
	return u
}

// RandomPoint returns a canonicalized uniform random point.
func RandomPoint(sp *space.Space, rng *rand.Rand) []float64 {
	u := make([]float64, sp.Dim())
	for d := range u {
		u[d] = rng.Float64()
	}
	return sp.Canonicalize(u)
}

// LHSPoints returns n canonicalized Latin-hypercube points.
func LHSPoints(sp *space.Space, n int, rng *rand.Rand) [][]float64 {
	raw := sample.LatinHypercube(n, sp.Dim(), rng)
	out := make([][]float64, n)
	for i, u := range raw {
		out[i] = sp.Canonicalize(u)
	}
	return out
}
