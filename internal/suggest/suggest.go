// Package suggest turns proposal generation into a server-side hot
// path: an LRU cache of fitted core.Surrogates keyed by (tuning problem,
// task, kind), kept fresh by single-flight background syncs against the
// snapshot-isolated history store. One rule serves every kind: a model
// that can hand out a copy of itself absorbs new rows by Observe on the
// copy between periodic full fits, any other is rebuilt. Thin crowd
// clients then need no numerics at all — they POST /api/v1/suggest and
// receive the next configuration to evaluate, the Collective-Mind-style
// "repository serves the models" division of labor.
//
// Consistency contract: a served proposal may lag the newest uploads by
// fewer than maxStale (16) samples for its problem (serve-while-stale,
// with a background refresh in flight); once the lag reaches it the
// request blocks until the model is resynchronized. Every history
// version triggers at most one fit across all concurrent requests.
package suggest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gptunecrowd/internal/core"
	"gptunecrowd/internal/obs"
	"gptunecrowd/internal/space"
	"gptunecrowd/internal/stat"
	"gptunecrowd/internal/surrogate"
)

// ErrUnknownProblem is returned by Sources (and propagated by Suggest)
// when the tuning problem has no registered space/policy.
var ErrUnknownProblem = errors.New("suggest: unknown tuning problem")

// ErrBadRequest wraps request-validation failures (empty problem name,
// unknown acquisition) so transports can map them to client errors.
var ErrBadRequest = errors.New("suggest: bad request")

// driftSigma is the standardized-residual threshold beyond which an
// incoming observation forces a full refit instead of an incremental
// update: a point this far outside the frozen standardization means the
// frozen hyperparameters no longer describe the data.
const driftSigma = 6.0

// retireTol is the per-coordinate tolerance for matching an uploaded
// sample against an outstanding liar point: uploads round-trip through
// JSON and parameter decoding, so exact float equality is too strict.
const retireTol = 1e-6

// maxLiarsPerEntry bounds the per-entry liar ledger; past it the oldest
// liars are dropped (counted as expired) — a crowd that never reports
// back must not make every future batch pay for its ghosts.
const maxLiarsPerEntry = 64

// Snapshot is one consistent view of a task's evaluation history, as
// produced by a Source. X holds the successful samples encoded into the
// normalized unit cube, aligned with Y; Version counts all matching
// samples (including failed ones), so it is the monotone staleness
// token. The service takes ownership of all slices.
type Snapshot struct {
	X       [][]float64
	Y       []float64
	Space   *space.Space
	Version uint64
}

// Source yields history snapshots. Implementations must be safe for
// concurrent use and snapshot-isolated (the crowd server backs this
// with historydb's immutable snapshots).
type Source interface {
	History(ctx context.Context, problem string, task map[string]interface{}) (*Snapshot, error)
}

// Serving limits. Every deployment runs with these; New copies the
// ones tests shrink into the Service.
const (
	cacheSize  = 64  // fitted-model LRU capacity
	refitEvery = 16  // full refit after this many incremental updates
	maxStale   = 16  // a request blocks when its model lags this many uploads
	candidates = 128 // acquisition prescreen pool
	deGens     = 12  // DE generations per suggestion
	maxBatch   = 16  // largest Request.Batch
	// liarTTL is how many problem generations an unretired liar point
	// survives. A liar is retired early when a matching real sample is
	// absorbed.
	liarTTL = 4 * maxStale
)

// A batch must fit the liar ledger (compile-time check).
const _ uint = maxLiarsPerEntry - maxBatch

// Config tunes the service.
type Config struct {
	Seed     int64
	Registry *obs.Registry // metrics sink (default: private registry)
	Logger   *slog.Logger  // fit/error log (default: discard)
}

func (c *Config) defaults() {
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	c.Logger = obs.Or(c.Logger)
}

// Request asks for the next configuration(s) to evaluate.
type Request struct {
	Problem     string
	Task        map[string]interface{}
	Acquisition string // "ei" (default), "lcb" or "pi"
	// Batch asks for that many distinct proposals in one call (0 and 1
	// are equivalent). Batched proposals are spread with the
	// constant-liar strategy on a clone of the cached surrogate, and
	// each point is remembered as a liar until a matching real sample is
	// uploaded (retired via NotifyAppend) or it expires.
	Batch int
	// Surrogate optionally picks the model family serving the request,
	// by surrogate kind name: "gp" (the default when absent, the exact
	// GP), "copula" (Gaussian-copula quantile model) or "sgp" (sparse
	// inducing-point GP — the crowd-scale choice). Each kind has its own
	// cache entry. A kind surrogate.New cannot build from the target
	// history alone ("lcm" needs source tasks; "auto" is a selector, not
	// a kind) fails with ErrBadRequest.
	Surrogate string
}

// Proposal is one point of a (possibly batched) response.
type Proposal struct {
	Params map[string]interface{} // decoded configuration
	ParamU []float64              // normalized point
}

// Response carries the proposal(s). The single-point fields mirror
// Proposals[0] so pre-batch clients keep working unchanged.
type Response struct {
	Params       map[string]interface{} // decoded configuration
	ParamU       []float64              // normalized point
	Proposals    []Proposal             // all points, len == effective batch size
	ModelVersion uint64                 // history version the model covers
	ModelSamples int                    // training size of the serving model (0: space-fill)
	CacheHit     bool                   // served without waiting for a fit
	Proposer     string                 // "suggest/ei", "suggest/space-fill", ...
}

// Stats is a point-in-time counter snapshot, embedded in the crowd
// server's /api/v1/metrics document.
type Stats struct {
	Requests            int64 `json:"requests"`
	CacheHits           int64 `json:"cache_hits"`
	CacheMisses         int64 `json:"cache_misses"`
	FullFits            int64 `json:"full_fits"`
	IncrementalObserves int64 `json:"incremental_observes"`
	Evictions           int64 `json:"evictions"`
	Entries             int   `json:"entries"`
	StaleWaits          int64 `json:"stale_waits"`
	BatchRequests       int64 `json:"batch_requests"`
	BatchProposals      int64 `json:"batch_proposals"`
	LiarsActive         int64 `json:"liars_active"`
	LiarsRetired        int64 `json:"liars_retired"`
	LiarsExpired        int64 `json:"liars_expired"`
}

// cloner is the one capability the sync and private-copy rules look
// for: a fitted surrogate that can hand out an independent copy of
// itself, so new rows (or liars) are folded into the copy while
// requests keep searching the original.
type cloner interface{ Clone() core.Surrogate }

// entry is one cached surrogate. mu guards the model state (RLock for
// prediction/search, Lock for swap/incremental update); fitMu guards
// the single-flight bookkeeping.
type entry struct {
	key     string
	problem string
	task    map[string]interface{}
	kind    string // surrogate kind the entry is built with

	mu      sync.RWMutex
	model   core.Surrogate
	space   *space.Space
	hist    *core.History
	version uint64 // snapshot version the model covers
	succN   int    // successful rows absorbed by the model
	// Refit budget and drift reference, reset by every full fit: rows
	// observed incrementally since, and the mean and (population)
	// standard deviation of the targets that fit saw.
	sinceFit    int
	yMean, yStd float64
	lastSeen    uint64 // problem generation at the last completed sync
	fetched     bool   // at least one snapshot applied
	lastErr     error
	// liars are batch-served points awaiting their real sample: future
	// proposals are pushed away from them, and each is retired exactly
	// once when a matching upload is absorbed (or expired by TTL).
	liars   []liar
	evicted bool // dropped from the cache: late liars are booked as expired

	fitMu   sync.Mutex
	fitting bool
	fitDone chan struct{}

	// LRU bookkeeping, guarded by the service lock.
	prev, next *entry
}

// Service serves suggestions from cached surrogates.
type Service struct {
	cfg Config
	src Source
	// The serving limits, from the package constants; in-package tests
	// lower them to reach eviction, staleness and expiry quickly.
	cacheSize, refitEvery, maxStale, maxBatch, liarTTL int
	// newModel builds an unfitted surrogate of a kind (surrogate.New;
	// tests substitute stubs).
	newModel func(kind string, cfg surrogate.Config) (core.Surrogate, error)

	mu      sync.Mutex // guards entries + LRU list
	entries map[string]*entry
	head    *entry // most recently used
	tail    *entry // least recently used

	gens sync.Map     // problem → *atomic.Uint64: uploads observed via NotifyAppend
	seq  atomic.Int64 // per-request RNG sequence

	requests, hits, misses     atomic.Int64
	fullFits, incrObs          atomic.Int64
	evictions, staleWaits      atomic.Int64
	batchReqs, batchProps      atomic.Int64
	liarsActive                atomic.Int64
	liarsRetired, liarsExpired atomic.Int64
	latency, fitSeconds        *obs.Histogram
	log                        *slog.Logger
}

// liar is one outstanding batch proposal: the point, the constant-liar
// objective it was pretend-observed at, and the problem generation it
// was issued under (for TTL expiry).
type liar struct {
	u    []float64
	y    float64
	born uint64
}

// New builds a Service over src. Metrics register into cfg.Registry
// under the suggest_* families.
func New(src Source, cfg Config) *Service {
	cfg.defaults()
	s := &Service{
		cfg: cfg, src: src, newModel: surrogate.New, entries: make(map[string]*entry), log: cfg.Logger,
		cacheSize: cacheSize, refitEvery: refitEvery, maxStale: maxStale, maxBatch: maxBatch, liarTTL: liarTTL,
	}
	r := cfg.Registry
	s.latency = r.Histogram("suggest_latency_seconds", "Suggestion latency from request to proposal.", nil)
	s.fitSeconds = r.Histogram("suggest_fit_seconds", "Wall time of surrogate fits (full and incremental syncs).", nil)
	r.CounterFunc("suggest_requests_total", "Suggestion requests served.", func() float64 { return float64(s.requests.Load()) })
	r.CounterFunc("suggest_cache_hits_total", "Requests served from a cached surrogate without waiting for a fit.", func() float64 { return float64(s.hits.Load()) })
	r.CounterFunc("suggest_cache_misses_total", "Requests that had to wait for a surrogate fit.", func() float64 { return float64(s.misses.Load()) })
	r.CounterFunc("suggest_fits_total", "Full surrogate refits.", func() float64 { return float64(s.fullFits.Load()) }, obs.L("kind", "full"))
	r.CounterFunc("suggest_fits_total", "Incremental posterior updates.", func() float64 { return float64(s.incrObs.Load()) }, obs.L("kind", "incremental"))
	r.CounterFunc("suggest_cache_evictions_total", "Fitted surrogates evicted from the LRU cache.", func() float64 { return float64(s.evictions.Load()) })
	r.CounterFunc("suggest_stale_waits_total", "Requests blocked on a resynchronizing fit (staleness >= 16 uploads).", func() float64 { return float64(s.staleWaits.Load()) })
	r.GaugeFunc("suggest_cache_entries", "Surrogates currently cached.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.entries))
	})
	r.CounterFunc("batch_requests_total", "Suggestion requests that asked for more than one proposal.", func() float64 { return float64(s.batchReqs.Load()) })
	r.CounterFunc("batch_proposals_total", "Proposals issued through the batch (constant-liar) path.", func() float64 { return float64(s.batchProps.Load()) })
	r.GaugeFunc("batch_liars_active", "Batch-served points still awaiting their real sample.", func() float64 { return float64(s.liarsActive.Load()) })
	r.CounterFunc("batch_liars_retired_total", "Liar points retired by a matching absorbed sample.", func() float64 { return float64(s.liarsRetired.Load()) })
	r.CounterFunc("batch_liars_expired_total", "Liar points dropped by TTL or ledger-capacity expiry.", func() float64 { return float64(s.liarsExpired.Load()) })
	return s
}

// Stats returns the counter snapshot.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	n := len(s.entries)
	s.mu.Unlock()
	return Stats{
		Requests:            s.requests.Load(),
		CacheHits:           s.hits.Load(),
		CacheMisses:         s.misses.Load(),
		FullFits:            s.fullFits.Load(),
		IncrementalObserves: s.incrObs.Load(),
		Evictions:           s.evictions.Load(),
		Entries:             n,
		StaleWaits:          s.staleWaits.Load(),
		BatchRequests:       s.batchReqs.Load(),
		BatchProposals:      s.batchProps.Load(),
		LiarsActive:         s.liarsActive.Load(),
		LiarsRetired:        s.liarsRetired.Load(),
		LiarsExpired:        s.liarsExpired.Load(),
	}
}

// NotifyAppend records that n new samples landed for problem, marking
// its cached models stale. The crowd server calls this after every
// accepted upload and quarantine release.
func (s *Service) NotifyAppend(problem string, n int) {
	if n <= 0 {
		return
	}
	s.gen(problem).Add(uint64(n))
}

func (s *Service) gen(problem string) *atomic.Uint64 {
	if v, ok := s.gens.Load(problem); ok {
		return v.(*atomic.Uint64)
	}
	v, _ := s.gens.LoadOrStore(problem, new(atomic.Uint64))
	return v.(*atomic.Uint64)
}

// TaskKey canonicalizes task parameters: JSON with sorted map keys, nil
// and empty tasks identical. It keys the cache entry, and a Source must
// match stored rows to a request's task with it, so the entry's history
// is exactly the rows its key names.
func TaskKey(task map[string]interface{}) string {
	if len(task) == 0 {
		return "{}"
	}
	b, err := json.Marshal(task)
	if err != nil {
		// Non-marshalable tasks cannot arrive over the wire; key them by
		// pointer-free fallback so they at least do not collide with {}.
		return fmt.Sprintf("!%v", task)
	}
	return string(b)
}

// entryFor returns the cache entry for key, creating it and evicting
// the LRU tail past capacity. A victim's outstanding liars are settled
// as expired (lock order Service.mu → entry.mu, never the reverse).
func (s *Service) entryFor(key, problem string, task map[string]interface{}, kind string) *entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[key]
	if e == nil {
		e = &entry{key: key, problem: problem, task: task, kind: kind}
		s.entries[key] = e
		s.lruPush(e)
		for len(s.entries) > s.cacheSize {
			victim := s.tail
			s.lruRemove(victim)
			delete(s.entries, victim.key)
			s.evictions.Add(1)
			victim.mu.Lock()
			dropped := int64(len(victim.liars))
			victim.liars, victim.evicted = nil, true
			victim.mu.Unlock()
			s.liarsActive.Add(-dropped)
			s.liarsExpired.Add(dropped)
		}
	} else {
		s.lruRemove(e)
		s.lruPush(e)
	}
	return e
}

func (s *Service) lruPush(e *entry) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *Service) lruRemove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if s.head == e {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if s.tail == e {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func parseAcq(name string) (core.Acquisition, error) {
	switch strings.ToLower(name) {
	case "", "ei":
		return core.EI{}, nil
	case "lcb":
		return core.LCB{}, nil
	case "pi":
		return core.PI{}, nil
	}
	return nil, fmt.Errorf("%w: unknown acquisition %q (want ei, lcb or pi)", ErrBadRequest, name)
}

// Suggest returns the next configuration to evaluate for (Problem,
// Task). Safe for high-concurrency use; the hot path is a cache read
// plus one acquisition search over the cached surrogate.
func (s *Service) Suggest(ctx context.Context, req Request) (*Response, error) {
	start := time.Now()
	defer func() { s.latency.Observe(time.Since(start).Seconds()) }()
	s.requests.Add(1)
	if req.Problem == "" {
		return nil, fmt.Errorf("%w: empty tuning problem name", ErrBadRequest)
	}
	acq, err := parseAcq(req.Acquisition)
	if err != nil {
		return nil, err
	}
	// A kind is servable iff it can be built from the target history
	// alone; decided here, before a cache entry exists, so a junk hint
	// cannot evict a good model.
	kind := strings.ToLower(req.Surrogate)
	if kind == "" {
		kind = surrogate.KindGP
	}
	if _, err := s.newModel(kind, surrogate.Config{}); err != nil {
		return nil, fmt.Errorf("%w: surrogate %q is not servable by /suggest: %v", ErrBadRequest, req.Surrogate, err)
	}
	k := req.Batch
	if k <= 0 {
		k = 1
	}
	if k > s.maxBatch {
		return nil, fmt.Errorf("%w: batch size %d exceeds the maximum %d", ErrBadRequest, k, s.maxBatch)
	}
	key := req.Problem + "\x1f" + TaskKey(req.Task) + "\x1f" + kind
	e := s.entryFor(key, req.Problem, req.Task, kind)
	gen := s.gen(req.Problem)

	e.mu.RLock()
	fetched, lastSeen, lastErr := e.fetched, e.lastSeen, e.lastErr
	e.mu.RUnlock()
	gap := gen.Load() - lastSeen
	hit := true
	switch {
	case !fetched, gap >= uint64(s.maxStale):
		// Cold entry or stale beyond the consistency bound: block until
		// the in-flight (or newly started) sync completes.
		hit = false
		s.misses.Add(1)
		if fetched {
			s.staleWaits.Add(1)
		}
		ch := s.ensureFlight(ctx, e)
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		e.mu.RLock()
		fetched, lastErr = e.fetched, e.lastErr
		e.mu.RUnlock()
		if !fetched {
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, errors.New("suggest: history fetch failed")
		}
	case gap > 0:
		// Bounded staleness: serve the cached model now, refresh behind.
		s.ensureFlight(ctx, e)
		s.hits.Add(1)
	default:
		s.hits.Add(1)
	}

	rng := rand.New(rand.NewSource(s.cfg.Seed ^ (0x9e3779b9 * s.seq.Add(1))))

	// Snapshot the serving state under the read lock, then search
	// without it: apply replaces model/hist/space wholesale (never
	// mutates in place), so the snapshot stays internally consistent and
	// concurrent syncs are never blocked by a long acquisition search.
	e.mu.RLock()
	model, sp, hist, version, samples := e.model, e.space, e.hist, e.version, e.succN
	lastErr = e.lastErr
	var pendingLiars []liar
	if model != nil && (k > 1 || len(e.liars) > 0) {
		pendingLiars = append(pendingLiars, e.liars...)
	}
	e.mu.RUnlock()
	if sp == nil {
		if lastErr != nil {
			return nil, lastErr
		}
		return nil, errors.New("suggest: no parameter space for problem")
	}

	resp := &Response{ModelVersion: version, CacheHit: hit}
	searchOpts := core.SearchOptions{Candidates: candidates, DEGens: deGens}
	switch {
	case model == nil:
		// Cold start: too little history for a surrogate; space-fill.
		// Each draw joins a scratch history so the k points are distinct.
		resp.Proposer = "suggest/space-fill"
		scratch := scratchHist(hist, k)
		for j := 0; j < k; j++ {
			u := randomFresh(sp, scratch, rng)
			scratch.Append(core.Sample{ParamU: u, Failed: true, Err: "pending proposal"})
			resp.Proposals = append(resp.Proposals, proposalFor(sp, u))
		}
	case k == 1 && len(pendingLiars) == 0:
		// The allocation-flat hot path: one search over the shared model.
		u := core.SearchNext(model, sp, acq, hist, rng, searchOpts)
		resp.Proposals = []Proposal{proposalFor(sp, u)}
		resp.ModelSamples = samples
		resp.Proposer = "suggest/" + strings.ToLower(acq.Name())
	default:
		// Batch (or liar-aware single) path: pretend-observe the pending
		// liars and each new point on a private copy, so proposals spread
		// out instead of collapsing onto the acquisition optimum. Without
		// a copy the shared model is searched read-only and the spread
		// rests on the scratch history's duplicate penalty alone.
		resp.ModelSamples = samples
		resp.Proposer = "suggest/" + strings.ToLower(acq.Name())
		work, private := s.privateCopy(e.kind, model, sp, hist)
		scratch := scratchHist(hist, len(pendingLiars)+k)
		for _, l := range pendingLiars {
			// A liar that breaks positive definiteness (e.g. a duplicate
			// point) is skipped for repulsion but still blocks re-proposal
			// through the scratch history.
			if private {
				_ = work.Observe(l.u, l.y)
			}
			scratch.Append(core.Sample{ParamU: l.u, Y: l.y, Proposer: "suggest/liar"})
		}
		lie := core.LieValue(scratch)
		newLiars := make([]liar, 0, k)
		for j := 0; j < k; j++ {
			u := core.SearchNext(work, sp, acq, scratch, rng, searchOpts)
			resp.Proposals = append(resp.Proposals, proposalFor(sp, u))
			newLiars = append(newLiars, liar{u: u, y: lie})
			if private && j < k-1 {
				_ = work.Observe(u, lie)
			}
			scratch.Append(core.Sample{ParamU: u, Y: lie, Proposer: "suggest/liar"})
		}
		// Only batch points enter the ledger: a single proposal served
		// while liars are pending is steered away from them but is not
		// itself remembered, matching the pre-batch single-shot contract.
		if k > 1 {
			s.recordLiars(e, newLiars)
		}
	}
	if k > 1 {
		s.batchReqs.Add(1)
		s.batchProps.Add(int64(len(resp.Proposals)))
	}
	resp.ParamU = resp.Proposals[0].ParamU
	resp.Params = resp.Proposals[0].Params
	return resp, nil
}

// privateCopy returns a copy of the serving model that may absorb liar
// pseudo-observations: its Clone when it offers one, else a fresh model
// fitted on the serving history. If neither works it returns the shared
// model and false: search it, never Observe on it.
func (s *Service) privateCopy(kind string, model core.Surrogate, sp *space.Space, hist *core.History) (core.Surrogate, bool) {
	if c, ok := model.(cloner); ok {
		return c.Clone(), true
	}
	X := make([][]float64, hist.Len())
	Y := make([]float64, hist.Len())
	for i, smp := range hist.Samples {
		X[i] = smp.ParamU
		Y[i] = smp.Y
	}
	private, err := s.fit(kind, sp, X, Y)
	if err != nil {
		s.log.Warn("suggest batch: private surrogate refit failed, serving read-only",
			"kind", kind, "error", err)
		return model, false
	}
	return private, true
}

// fit builds a fresh surrogate of the kind for the space and trains it
// on (X, Y).
func (s *Service) fit(kind string, sp *space.Space, X [][]float64, Y []float64) (core.Surrogate, error) {
	m, err := s.newModel(kind, surrogate.Config{Dim: sp.Dim(), Categorical: sp.CategoricalMask()})
	if err != nil {
		return nil, err
	}
	if ss, ok := m.(interface{ SetSeed(int64) }); ok {
		ss.SetSeed(s.cfg.Seed)
	}
	if err := m.Fit(X, Y); err != nil {
		return nil, err
	}
	return m, nil
}

// proposalFor decodes one canonical point.
func proposalFor(sp *space.Space, u []float64) Proposal {
	return Proposal{ParamU: u, Params: sp.Decode(u)}
}

// scratchHist copies h with room for extra appended stand-ins.
func scratchHist(h *core.History, extra int) *core.History {
	n := 0
	if h != nil {
		n = h.Len()
	}
	scratch := &core.History{Samples: make([]core.Sample, 0, n+extra)}
	if h != nil {
		scratch.Samples = append(scratch.Samples, h.Samples...)
	}
	return scratch
}

// recordLiars appends freshly served batch points to the entry's liar
// ledger, stamped with the current problem generation, and enforces the
// ledger cap (oldest out first, counted as expired). An entry evicted
// while the request was searching keeps no ledger: its points expire.
func (s *Service) recordLiars(e *entry, newLiars []liar) {
	if len(newLiars) == 0 {
		return
	}
	born := s.gen(e.problem).Load()
	for i := range newLiars {
		newLiars[i].born = born
	}
	e.mu.Lock()
	if e.evicted {
		e.mu.Unlock()
		s.liarsExpired.Add(int64(len(newLiars)))
		return
	}
	e.liars = append(e.liars, newLiars...)
	dropped := len(e.liars) - maxLiarsPerEntry
	if dropped > 0 {
		e.liars = append(e.liars[:0:0], e.liars[dropped:]...)
	} else {
		dropped = 0
	}
	e.mu.Unlock()
	s.liarsActive.Add(int64(len(newLiars) - dropped))
	s.liarsExpired.Add(int64(dropped))
}

// randomFresh draws a canonical random point not yet in the history.
func randomFresh(sp *space.Space, h *core.History, rng *rand.Rand) []float64 {
	var u []float64
	for i := 0; i < 64; i++ {
		u = core.RandomPoint(sp, rng)
		if h == nil || !h.Contains(u, 1e-9) {
			return u
		}
	}
	return u
}

// ensureFlight starts (or joins) the single background sync for e and
// returns the channel closed when it finishes. The flight inherits the
// request's trace ID so fit log lines correlate with the triggering
// client call, but not its deadline — a fit must survive the request
// that kicked it off.
func (s *Service) ensureFlight(ctx context.Context, e *entry) chan struct{} {
	e.fitMu.Lock()
	defer e.fitMu.Unlock()
	if e.fitting {
		return e.fitDone
	}
	e.fitting = true
	ch := make(chan struct{})
	e.fitDone = ch
	go s.runFlight(obs.WithTrace(context.Background(), obs.TraceID(ctx)), e, ch)
	return ch
}

// runFlight fetches snapshots and applies them until the problem
// generation is stable, so one flight absorbs uploads that land while
// it runs instead of leaving a gap for the next request to rediscover.
func (s *Service) runFlight(ctx context.Context, e *entry, done chan struct{}) {
	defer func() {
		e.fitMu.Lock()
		e.fitting = false
		e.fitMu.Unlock()
		close(done)
	}()
	gen := s.gen(e.problem)
	for {
		g0 := gen.Load()
		snap, err := s.src.History(ctx, e.problem, e.task)
		if err != nil {
			e.mu.Lock()
			e.lastErr = err
			e.mu.Unlock()
			s.log.ErrorContext(ctx, "suggest fit: history fetch failed",
				"problem", e.problem, "error", err)
			return
		}
		s.apply(ctx, e, snap, g0)
		if gen.Load() == g0 {
			return
		}
	}
}

// apply folds one snapshot into the entry. The sync rule is the same
// for every kind: a model that offers a copy absorbs the new rows by
// Observe on that copy while the entry is inside its refit budget and
// the rows have not drifted; otherwise a fresh model is built and
// fitted on the whole snapshot.
func (s *Service) apply(ctx context.Context, e *entry, snap *Snapshot, g0 uint64) {
	nsucc := len(snap.X)
	hist := &core.History{Samples: make([]core.Sample, nsucc)}
	for i := range snap.X {
		hist.Samples[i] = core.Sample{ParamU: snap.X[i], Y: snap.Y[i], Proposer: "history"}
	}

	e.mu.RLock()
	model, prevN, sinceFit := e.model, e.succN, e.sinceFit
	yMean, yStd := e.yMean, e.yStd
	e.mu.RUnlock()

	fitStart := time.Now()
	// All model construction happens outside the entry lock, and the
	// incremental path updates a copy: concurrent requests may be
	// mid-search on the serving model, whose state Observe would
	// otherwise rewrite under their feet. The finished model swaps in
	// wholesale below.
	var next core.Surrogate
	var fitErr error
	fitKind := "none"
	switch {
	case model != nil && nsucc == prevN:
		// No new successful rows; keep serving the current model.
	case nsucc < 2:
		// Not enough history for a surrogate; space-fill (below).
	default:
		if c, ok := model.(cloner); ok && nsucc > prevN &&
			sinceFit+(nsucc-prevN) < s.refitEvery && !drifted(yMean, yStd, snap.Y[prevN:]) {
			next = c.Clone()
			for i := prevN; i < nsucc; i++ {
				if err := next.Observe(snap.X[i], snap.Y[i]); err != nil {
					// E.g. lost positive definiteness mid-stream: refit from
					// scratch rather than serve a broken posterior.
					s.log.WarnContext(ctx, "suggest fit: incremental update failed, forcing refit",
						"problem", e.problem, "surrogate", e.kind, "error", err)
					next = nil
					break
				}
				s.incrObs.Add(1)
			}
		}
		if next != nil {
			fitKind = "incremental"
			sinceFit += nsucc - prevN
		} else if next, fitErr = s.fit(e.kind, snap.Space, snap.X, snap.Y); fitErr == nil {
			fitKind = "full"
			s.fullFits.Add(1)
			sinceFit = 0
			yMean, yStd = stat.Mean(snap.Y), stat.StdDev(snap.Y)
		} else {
			s.log.ErrorContext(ctx, "suggest fit: full refit failed",
				"problem", e.problem, "surrogate", e.kind, "samples", nsucc, "error", fitErr)
		}
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case next != nil:
		e.model = next
		e.succN = nsucc
		e.sinceFit, e.yMean, e.yStd = sinceFit, yMean, yStd
	case nsucc < 2:
		// Not enough history for a surrogate yet; serve space-fill.
		e.model = nil
		e.succN = nsucc
	}
	// Retire liars whose real sample just got absorbed (each absorbed
	// row retires at most one liar, each liar at most once), then expire
	// the ones the crowd never reported back.
	if nsucc > prevN {
		if retired := retireLiars(e, snap.X[prevN:nsucc]); retired > 0 {
			s.liarsActive.Add(-int64(retired))
			s.liarsRetired.Add(int64(retired))
		}
	}
	if expired := expireLiars(e, g0, uint64(s.liarTTL)); expired > 0 {
		s.liarsActive.Add(-int64(expired))
		s.liarsExpired.Add(int64(expired))
	}
	e.space = snap.Space
	e.hist = hist
	// lastSeen and version only ever advance: a sync that raced a
	// concurrent NotifyAppend (the upload/release handlers notify after
	// inserting, so a fetch can see rows its generation does not cover
	// yet) must never roll the staleness clock back — a regressed
	// lastSeen would re-open the gap and let a later sync double-absorb
	// rows the model already contains.
	if snap.Version > e.version {
		e.version = snap.Version
	}
	if g0 > e.lastSeen {
		e.lastSeen = g0
	}
	e.fetched = true
	e.lastErr = fitErr
	s.fitSeconds.Observe(time.Since(fitStart).Seconds())
	s.log.InfoContext(ctx, "suggest fit",
		"problem", e.problem, "kind", fitKind, "samples", nsucc, "version", snap.Version)
}

// retireLiars removes, for each newly absorbed row, the first liar
// matching it within retireTol. Caller holds e.mu. Returns the number
// retired; exactly-once follows from removal — a retired liar cannot
// match a second row, and a second upload of the same point finds the
// ledger slot already gone.
func retireLiars(e *entry, newRows [][]float64) int {
	if len(e.liars) == 0 {
		return 0
	}
	retired := 0
	for _, row := range newRows {
		for i, l := range e.liars {
			if pointsClose(row, l.u, retireTol) {
				e.liars = append(e.liars[:i], e.liars[i+1:]...)
				retired++
				break
			}
		}
		if len(e.liars) == 0 {
			break
		}
	}
	return retired
}

// expireLiars drops liars older than ttl generations. Caller holds e.mu.
func expireLiars(e *entry, now, ttl uint64) int {
	if len(e.liars) == 0 {
		return 0
	}
	kept := e.liars[:0]
	expired := 0
	for _, l := range e.liars {
		if now >= l.born && now-l.born > ttl {
			expired++
			continue
		}
		kept = append(kept, l)
	}
	e.liars = kept
	return expired
}

// pointsClose reports per-coordinate closeness within tol.
func pointsClose(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// drifted reports whether any incoming target sits far outside the
// targets of the last full fit (their mean and population deviation, a
// degenerate spread counting as 1 — the standardization a GP freezes):
// the hyperparameter-drift trigger for a full refit.
func drifted(mean, sd float64, newY []float64) bool {
	if sd < 1e-12 {
		sd = 1
	}
	for _, y := range newY {
		if math.Abs(y-mean)/sd > driftSigma {
			return true
		}
	}
	return false
}
