package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Batch observation errors. Drivers feeding a session from a crowd of
// workers match these with errors.Is to tell harmless races (a retried
// task reporting a result the ledger already committed) from caller
// bugs (an id the session never issued).
var (
	// ErrStaleObservation marks a result for a proposal that was already
	// observed and committed to the history. Safe to ignore: the ledger
	// accepted the first result and this one changes nothing.
	ErrStaleObservation = errors.New("core: observation for an already-committed proposal")
	// ErrDuplicateObservation marks a second result for a proposal that
	// is still pending. The first result stands.
	ErrDuplicateObservation = errors.New("core: duplicate observation for a pending proposal")
	// ErrUnknownProposal marks an id the session never issued.
	ErrUnknownProposal = errors.New("core: observation for an unknown proposal id")
)

// Batch strategy names accepted by BatchConfig.Strategy.
const (
	BatchConstantLiar      = "cl"
	BatchLocalPenalization = "lp"
)

// BatchConfig selects how in-flight proposals influence later ones when
// a batch is generated against the same surrogate.
type BatchConfig struct {
	// Strategy is "cl" (constant liar, the default: each pending point
	// enters the scratch history with the incumbent objective, so the
	// surrogate's uncertainty collapses there) or "lp" (local
	// penalization: pending points are invisible to the fit but the
	// acquisition is multiplied by 1-exp(-d²/2r²) around each, pushing
	// the search away without inventing observations).
	Strategy string
	// LPRadius is the local-penalization radius in normalized [0,1]
	// coordinates (default 0.1). Used only by the "lp" strategy.
	LPRadius float64
}

func (c *BatchConfig) validate() error {
	switch c.Strategy {
	case "", BatchConstantLiar, BatchLocalPenalization:
	default:
		return fmt.Errorf("core: unknown batch strategy %q (want %q or %q)",
			c.Strategy, BatchConstantLiar, BatchLocalPenalization)
	}
	if c.LPRadius < 0 || math.IsNaN(c.LPRadius) || math.IsInf(c.LPRadius, 0) {
		return fmt.Errorf("core: bad local-penalization radius %v", c.LPRadius)
	}
	if c.LPRadius == 0 {
		c.LPRadius = 0.1
	}
	return nil
}

// PendingProposal is one outstanding batch proposal: the point to
// evaluate plus the id its result must be reported under.
type PendingProposal struct {
	// ID is the session-unique, monotonically increasing proposal id.
	// Results are committed to the history in id order no matter the
	// order they arrive in.
	ID uint64
	// ParamU is the canonical (normalized) point.
	ParamU []float64
	// Params is the decoded parameter assignment to evaluate.
	Params map[string]interface{}
}

// pendingEntry is one ledger slot: a proposal that has been issued but
// not yet committed to the history. Entries are kept in id (issue)
// order; results may arrive out of order and are buffered here until
// every earlier proposal has a result too, which makes the committed
// history — and therefore every later surrogate fit — a function of
// the result *set*, not the arrival order.
type pendingEntry struct {
	id       uint64
	u        []float64
	lie      float64 // constant-liar value fixed at proposal time
	observed bool
	y        float64
	failed   bool
	errMsg   string
}

// sample converts a committed ledger entry into its history sample.
func (s *Session) ledgerSample(e *pendingEntry) Sample {
	smp := Sample{
		ParamU:   e.u,
		Params:   s.problem.ParamSpace.Decode(e.u),
		Proposer: s.proposer.Name(),
	}
	if e.failed {
		smp.Failed = true
		smp.Err = e.errMsg
	} else {
		smp.Y = e.y
	}
	return smp
}

// lieSample is the stand-in a still-unobserved entry contributes to the
// scratch history a batch is proposed against. Under the constant-liar
// strategy it is a fake success at the lie value (visible to fits);
// under local penalization it is a failed placeholder — invisible to
// fits (History.XY skips failures) but visible to the dedup check
// (History.Contains does not), so the same point is never re-proposed.
func (s *Session) lieSample(e *pendingEntry) Sample {
	if s.opts.Batch.Strategy == BatchLocalPenalization {
		return Sample{ParamU: e.u, Failed: true, Err: "pending proposal", Proposer: s.proposer.Name()}
	}
	return Sample{ParamU: e.u, Y: e.lie, Proposer: s.proposer.Name()}
}

// scratchHistory is the committed history plus every ledger entry in id
// order: observed-but-uncommitted entries contribute their real result,
// unobserved ones their strategy stand-in.
func (s *Session) scratchHistory() *History {
	scratch := &History{Samples: make([]Sample, 0, len(s.h.Samples)+len(s.ledger))}
	scratch.Samples = append(scratch.Samples, s.h.Samples...)
	for _, e := range s.ledger {
		if e.observed {
			scratch.Append(s.ledgerSample(e))
		} else {
			scratch.Append(s.lieSample(e))
		}
	}
	return scratch
}

// unobservedPoints are the normalized points of every pending proposal
// without a result — the set local penalization pushes away from.
func (s *Session) unobservedPoints() [][]float64 {
	var pts [][]float64
	for _, e := range s.ledger {
		if !e.observed {
			pts = append(pts, e.u)
		}
	}
	return pts
}

// lpPenalty builds the local-penalization factor around the pending
// points: φ(u) = Π_j (1 − exp(−‖u−x_j‖²/(2r²))), 0 at a pending point
// and →1 far from all of them. Returns nil when nothing is pending.
func lpPenalty(pending [][]float64, radius float64) func(u []float64) float64 {
	if len(pending) == 0 {
		return nil
	}
	inv := 1 / (2 * radius * radius)
	return func(u []float64) float64 {
		p := 1.0
		for _, x := range pending {
			d2 := 0.0
			for i := range x {
				d := u[i] - x[i]
				d2 += d * d
			}
			p *= 1 - math.Exp(-d2*inv)
		}
		return p
	}
}

// ProposeBatch is ProposeBatchContext with a background context.
func (s *Session) ProposeBatch(k int) ([]PendingProposal, error) {
	return s.ProposeBatchContext(context.Background(), k)
}

// ProposeBatchContext issues up to k new proposals on top of whatever
// is already pending, so a crowd of workers can evaluate several points
// of the same session concurrently. k is clamped to the remaining
// budget minus the points already in flight; when nothing remains it
// returns ErrBudgetExhausted (wrapped).
//
// Each proposal is generated against a scratch history that contains
// the committed samples, the uncommitted results, and a stand-in for
// every still-unobserved proposal (see BatchConfig), so the k points
// spread out instead of collapsing onto the acquisition optimum.
//
// Proposals consume randomness at issue time only; observing results
// consumes none. Together with the id-ordered commit rule of
// ObserveProposal this makes the session deterministic in the result
// set: any arrival order of the same results yields bit-identical
// history, RNG state, and next batch.
//
// Cancellation between points keeps the proposals already issued (they
// are in the ledger and will be returned again by PendingProposals) and
// returns the short batch with the context's error.
func (s *Session) ProposeBatchContext(rctx context.Context, k int) ([]PendingProposal, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: non-positive batch size %d", k)
	}
	room := s.opts.Budget - s.iter - len(s.ledger)
	if room <= 0 {
		return nil, fmt.Errorf("core: session budget of %d consumed or in flight: %w",
			s.opts.Budget, ErrBudgetExhausted)
	}
	if k > room {
		k = room
	}
	out := make([]PendingProposal, 0, k)
	for j := 0; j < k; j++ {
		if err := rctx.Err(); err != nil {
			return out, fmt.Errorf("core: batch proposal cancelled after %d of %d points: %w", j, k, err)
		}
		e, err := s.proposeOne(rctx)
		if err != nil {
			return out, err
		}
		out = append(out, PendingProposal{
			ID:     e.id,
			ParamU: e.u,
			Params: s.problem.ParamSpace.Decode(e.u),
		})
	}
	return out, nil
}

// proposeOne generates the next proposal against the current scratch
// history and appends it to the ledger.
func (s *Session) proposeOne(rctx context.Context) (*pendingEntry, error) {
	scratch := s.scratchHistory()
	search := s.search
	if s.opts.Batch.Strategy == BatchLocalPenalization {
		search.Penalty = lpPenalty(s.unobservedPoints(), s.opts.Batch.LPRadius)
	}
	ctx := &ProposeContext{
		Problem: s.problem,
		Task:    s.task,
		History: scratch,
		Rng:     s.rng,
		Iter:    s.iter + len(s.ledger),
		Budget:  s.opts.Budget,
		Search:  search,
		Stats:   &s.stats,
		Logf:    s.opts.Logf,
		Ctx:     rctx,
		Timers:  s.timers,
	}
	proposeStart := time.Now()
	u, err := s.proposer.Propose(ctx)
	s.timers.ObservePropose(time.Since(proposeStart))
	if err != nil {
		return nil, fmt.Errorf("core: proposer %s failed at iteration %d: %w", s.proposer.Name(), ctx.Iter, err)
	}
	if len(u) != s.problem.ParamSpace.Dim() {
		return nil, fmt.Errorf("core: proposer %s returned a %d-dim point, want %d",
			s.proposer.Name(), len(u), s.problem.ParamSpace.Dim())
	}
	u = s.problem.ParamSpace.Canonicalize(u)
	// Proposers that do not consult the history (pure space-filling)
	// can repeat a pending point; retry with random draws before
	// accepting the duplicate (exhausted discrete spaces must not hang).
	if scratch.Contains(u, s.search.DedupTol) {
		for i := 0; i < 64; i++ {
			c := s.problem.ParamSpace.Canonicalize(RandomPoint(s.problem.ParamSpace, s.rng))
			if s.search.Feasible != nil && !s.search.Feasible(c) {
				continue
			}
			if !scratch.Contains(c, s.search.DedupTol) {
				u = c
				break
			}
		}
	}
	e := &pendingEntry{id: s.nextPropID, u: u, lie: lieValue(scratch)}
	s.nextPropID++
	s.ledger = append(s.ledger, e)
	return e, nil
}

// RunBatchContext is the one tuning-loop driver: rounds of up to k
// proposals (ProposeBatchContext), evaluated on at most workers
// goroutines (0 means k) and reported by id (ObserveProposal), until the
// budget is consumed. RunContext is the k=1 case. Results commit in
// proposal-id order whichever evaluation finishes first, so a fixed
// seed gives one history at any worker count. On cancellation it
// returns the history so far with the wrapped context error; results
// that landed stay buffered in the ledger and the rest stay pending, so
// the session remains checkpointable and resumable.
func (s *Session) RunBatchContext(ctx context.Context, k, workers int) (*History, error) {
	for !s.Done() {
		if err := s.stepBatch(ctx, k, workers); err != nil {
			return s.h, err
		}
	}
	return s.h, nil
}

// stepBatch runs one round: up to k pending proposals (left by a
// cancelled round or a resume) or else k fresh ones are evaluated with
// the problem's Evaluator, each raced against the context so a hung
// evaluation cannot outlive a cancelled session.
func (s *Session) stepBatch(ctx context.Context, k, workers int) error {
	if s.problem.Evaluator == nil {
		return fmt.Errorf("core: problem %q has no evaluator; use Propose/Observe", s.problem.Name)
	}
	if k <= 0 {
		return fmt.Errorf("core: non-positive batch size %d", k)
	}
	batch := s.PendingProposals()
	if len(batch) > k {
		batch = batch[:k]
	}
	if len(batch) == 0 {
		var err error
		if batch, err = s.ProposeBatchContext(ctx, k); err != nil {
			return err
		}
	}
	if workers <= 0 || workers > len(batch) {
		workers = len(batch)
	}
	type result struct {
		id  uint64
		y   float64
		err error
	}
	// One slot per point: a result landing after cancellation is
	// dropped, its goroutine never blocks.
	results := make(chan result, len(batch))
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		go func() {
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(batch) {
					return
				}
				start := time.Now()
				y, err := s.problem.Evaluator.Evaluate(s.task, batch[i].Params)
				s.timers.ObserveEvaluate(time.Since(start))
				results <- result{batch[i].ID, y, err}
			}
		}()
	}
	for range batch {
		select {
		case r := <-results:
			if err := s.ObserveProposal(r.id, r.y, r.err); err != nil {
				return err
			}
		case <-ctx.Done():
			return fmt.Errorf("core: evaluation cancelled at iteration %d: %w", s.iter, ctx.Err())
		}
	}
	return nil
}

// ObserveProposal records the result for proposal id, wherever it sits
// in the batch. The result is buffered in the ledger and committed to
// the history only once every earlier proposal has a result too —
// commits happen strictly in id order, so the history (and every
// surrogate fit after it) is bit-identical no matter the order results
// arrive in.
//
// Out-of-order-safe by construction: a result for a proposal that was
// already committed returns ErrStaleObservation, a second result for a
// still-pending one returns ErrDuplicateObservation (the first stands),
// and an id the session never issued returns ErrUnknownProposal. All
// three leave the session untouched.
func (s *Session) ObserveProposal(id uint64, y float64, evalErr error) error {
	if id == 0 || id >= s.nextPropID {
		return fmt.Errorf("core: proposal id %d (next unissued is %d): %w", id, s.nextPropID, ErrUnknownProposal)
	}
	var e *pendingEntry
	for _, le := range s.ledger {
		if le.id == id {
			e = le
			break
		}
	}
	if e == nil {
		return fmt.Errorf("core: proposal id %d: %w", id, ErrStaleObservation)
	}
	if e.observed {
		return fmt.Errorf("core: proposal id %d: %w", id, ErrDuplicateObservation)
	}
	switch {
	case evalErr != nil:
		e.failed = true
		e.errMsg = evalErr.Error()
	case math.IsNaN(y) || math.IsInf(y, 0):
		// Mirror Observe: a non-finite "success" is a failure in
		// disguise, kept out of every surrogate fit.
		e.failed = true
		e.errMsg = fmt.Sprintf("non-finite objective %v", y)
	default:
		e.y = y
	}
	e.observed = true
	s.commitObserved(true)
	return nil
}

// commitObserved pops the observed prefix of the ledger into the
// history. notify controls whether OnSample fires (live observations
// do; checkpoint restoration replays silently).
func (s *Session) commitObserved(notify bool) {
	for len(s.ledger) > 0 && s.ledger[0].observed {
		e := s.ledger[0]
		s.ledger = s.ledger[1:]
		smp := s.ledgerSample(e)
		s.h.Append(smp)
		if notify && s.opts.OnSample != nil {
			s.opts.OnSample(s.iter, smp)
		}
		s.iter++
	}
}

// PendingProposals returns the proposals still awaiting a result, in id
// order. After a resume this is the work to hand back out to workers.
func (s *Session) PendingProposals() []PendingProposal {
	var out []PendingProposal
	for _, e := range s.ledger {
		if e.observed {
			continue
		}
		out = append(out, PendingProposal{
			ID:     e.id,
			ParamU: e.u,
			Params: s.problem.ParamSpace.Decode(e.u),
		})
	}
	return out
}

// InFlight returns the number of proposals issued but not yet committed
// (observed-but-buffered entries count: their budget is spoken for).
func (s *Session) InFlight() int { return len(s.ledger) }

// lieValue is the constant-liar target: the incumbent when one exists
// (the "max lie" variant would use the worst), otherwise zero — the
// surrogate standardizes targets, so the absolute level only matters
// relative to the observed samples.
func lieValue(h *History) float64 {
	if best, ok := h.Best(); ok {
		return best.Y
	}
	return 0
}
