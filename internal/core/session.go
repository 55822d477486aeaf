package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"gptunecrowd/internal/obs"
)

// SessionOptions configures a checkpointable tuning session.
type SessionOptions struct {
	Budget int   // total function evaluations
	Seed   int64 // RNG seed; runs are deterministic given the seed
	Search SearchOptions
	// OnSample observes every recorded evaluation.
	OnSample func(i int, s Sample)
	// Logf, when set, receives degradation log lines (fit failures,
	// robust-ingestion notes). Diagnostics only — never part of the
	// checkpointed state.
	Logf func(format string, args ...interface{})
	// Metrics, when non-nil, receives the tuner_* stage histograms
	// (fit, search, propose, evaluate durations). Diagnostics only —
	// never part of the checkpointed state.
	Metrics *obs.Registry
}

// Session is a suspendable tuning run: the propose → evaluate → record
// loop of RunLoop, decomposed into explicit Propose/Observe steps whose
// full state (history, iteration, RNG, outstanding proposal) can be
// serialized with Checkpoint and restored with ResumeSession, resuming
// bit-identically to an uninterrupted run.
//
// Decoupling Propose from Observe is also what lets a driver hand
// individual function evaluations to remote workers: call Propose, ship
// the configuration out, and Observe the result whenever it lands.
//
// The surrogate (GP/LCM hyperparameters, evaluated points) is refit
// deterministically from the history and the RNG stream on every
// Propose, so the checkpoint never stores model weights — history +
// RNG state + iteration is the complete search state.
type Session struct {
	problem  *Problem
	task     map[string]interface{}
	proposer Proposer
	opts     SessionOptions
	search   SearchOptions

	src  *CheckpointableSource
	rng  *rand.Rand
	h    *History
	iter int // evaluations committed to the history so far

	// ledger holds issued-but-uncommitted proposals in id order; see
	// batchsession.go. The single-proposal Propose/Observe pair is the
	// k=1 special case of the same machinery.
	ledger     []*pendingEntry
	nextPropID uint64

	stats  RobustStats
	timers *Timers
}

// NewSession validates the problem and returns a fresh session. Unlike
// RunLoop, the problem's Evaluator may be nil as long as only
// Propose/Observe (not Step/Run) are used — the remote-evaluation mode.
func NewSession(p *Problem, task map[string]interface{}, proposer Proposer, opts SessionOptions) (*Session, error) {
	if err := validateSessionProblem(p); err != nil {
		return nil, err
	}
	if proposer == nil {
		return nil, errors.New("core: session needs a proposer")
	}
	if opts.Budget <= 0 {
		return nil, fmt.Errorf("core: non-positive budget %d", opts.Budget)
	}
	s := &Session{
		problem:    p,
		task:       task,
		proposer:   proposer,
		opts:       opts,
		h:          &History{},
		src:        NewCheckpointableSource(opts.Seed),
		timers:     NewTimers(opts.Metrics),
		nextPropID: 1,
	}
	s.rng = rand.New(s.src)
	s.search = opts.Search
	if len(p.Constraints) > 0 {
		s.search.Feasible = func(u []float64) bool {
			return p.Feasible(task, p.ParamSpace.Decode(u))
		}
	}
	return s, nil
}

// validateSessionProblem is Problem.Validate minus the evaluator
// requirement (remote sessions evaluate elsewhere).
func validateSessionProblem(p *Problem) error {
	if p == nil {
		return errors.New("core: nil problem")
	}
	if p.Name == "" {
		return errors.New("core: problem needs a name")
	}
	if p.ParamSpace == nil || p.ParamSpace.Dim() == 0 {
		return fmt.Errorf("core: problem %q needs a non-empty parameter space", p.Name)
	}
	return nil
}

// Done reports whether the budget is consumed.
func (s *Session) Done() bool { return s.iter >= s.opts.Budget }

// Iter returns the number of recorded evaluations.
func (s *Session) Iter() int { return s.iter }

// Budget returns the session's evaluation budget.
func (s *Session) Budget() int { return s.opts.Budget }

// History returns the session's evaluation history (live, not a copy).
func (s *Session) History() *History { return s.h }

// Stats returns the session's robustness counters: surrogate-fit
// failures survived, space-filling fallbacks, and the most recent
// robust-ingestion gauges. Diagnostics only — not checkpointed, so a
// resumed session starts its counters at zero.
func (s *Session) Stats() RobustStats { return s.stats }

// Propose returns the next configuration to evaluate. It is idempotent
// while a proposal is outstanding: calling it again (e.g. after a
// resume) returns the same configuration without consuming randomness.
func (s *Session) Propose() (map[string]interface{}, error) {
	return s.ProposeContext(context.Background())
}

// ProposeContext is Propose with cooperative cancellation: the context
// is checked between the proposal's stages (before the surrogate fit,
// between fit and acquisition search), so a cancelled context stops the
// proposal without corrupting the session — no randomness beyond the
// interrupted stage is consumed and Checkpoint stays valid.
//
// Propose/Observe are the k=1 special case of the batch ledger: an
// outstanding unobserved proposal (from either path) is returned as-is.
func (s *Session) ProposeContext(ctx context.Context) (map[string]interface{}, error) {
	batch := s.PendingProposals()
	if len(batch) == 0 {
		var err error
		if batch, err = s.ProposeBatchContext(ctx, 1); err != nil {
			return nil, err
		}
	}
	return batch[0].Params, nil
}

// Observe records the result of the oldest outstanding proposal. Pass a
// non-nil evalErr to record a failed evaluation (it consumes budget but
// is invisible to surrogate fits). Drivers juggling a whole batch report
// by id with ObserveProposal instead.
func (s *Session) Observe(y float64, evalErr error) error {
	for _, e := range s.ledger {
		if !e.observed {
			return s.ObserveProposal(e.id, y, evalErr)
		}
	}
	return errors.New("core: Observe without an outstanding proposal")
}

// Step proposes the next point and evaluates it inline with the
// problem's Evaluator.
func (s *Session) Step() error {
	return s.StepContext(context.Background())
}

// StepContext is Step with cooperative cancellation. Cancellation
// during the proposal stops between stages; cancellation during the
// evaluation abandons the in-flight Evaluate call (its goroutine may
// finish in the background, but its result is discarded) and leaves the
// proposal outstanding, so a resumed session re-evaluates the same
// point instead of losing it.
func (s *Session) StepContext(ctx context.Context) error {
	return s.stepBatch(ctx, 1, 1)
}

// Run steps until the budget is consumed and returns the history. A
// session that was partially run (or resumed from a checkpoint) simply
// continues.
func (s *Session) Run() (*History, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation; on cancellation it
// returns the history accumulated so far with the wrapped context
// error, and the session remains checkpointable and resumable.
func (s *Session) RunContext(ctx context.Context) (*History, error) {
	return s.RunBatchContext(ctx, 1, 1)
}

// sessionCheckpoint is the serialized session state. Decoded parameter
// maps are not stored: they are reconstructed from the canonical points
// via Space.Decode, which restores the exact typed values and keeps the
// checkpoint compact.
type sessionCheckpoint struct {
	Version  int                `json:"version"`
	Problem  string             `json:"problem"`
	Proposer string             `json:"proposer"`
	Budget   int                `json:"budget"`
	Seed     int64              `json:"seed"`
	Iter     int                `json:"iter"`
	RNGState uint64             `json:"rng_state"`
	Samples  []checkpointSample `json:"samples,omitempty"`
	// Ledger holds the issued-but-uncommitted batch proposals, in
	// strictly increasing id order.
	Ledger         []checkpointPending `json:"ledger,omitempty"`
	NextProposalID uint64              `json:"next_proposal_id,omitempty"`
	// ProposerState carries the opaque private state of a stateful
	// proposer (e.g. the surrogate pool's bandit arm statistics), when
	// the proposer implements StatefulProposer. Absent for stateless
	// proposers and in pre-pool checkpoints; readers that do not
	// understand it ignore it.
	ProposerState json.RawMessage `json:"proposer_state,omitempty"`
}

// StatefulProposer is a Proposer whose decisions depend on state that
// is not a pure function of the history and the RNG stream (the
// surrogate pool's bandit statistics, the ensemble's selection record,
// a once-per-run source subsample). Sessions serialize that state into
// checkpoints and restore it on resume, so a resumed run remains
// bit-identical to an uninterrupted one.
type StatefulProposer interface {
	Proposer
	// StateCheckpoint serializes the proposer's private state.
	StateCheckpoint() ([]byte, error)
	// RestoreState restores state serialized by StateCheckpoint.
	RestoreState(data []byte) error
}

type checkpointSample struct {
	U        []float64 `json:"u"`
	Y        float64   `json:"y"`
	Failed   bool      `json:"failed,omitempty"`
	Err      string    `json:"err,omitempty"`
	Proposer string    `json:"proposer,omitempty"`
}

// checkpointPending serializes one ledger entry: the proposal, its
// constant-liar stand-in, and the buffered result when one has arrived
// but earlier proposals are still outstanding.
type checkpointPending struct {
	ID       uint64    `json:"id"`
	U        []float64 `json:"u"`
	Lie      float64   `json:"lie"`
	Observed bool      `json:"observed,omitempty"`
	Y        float64   `json:"y,omitempty"`
	Failed   bool      `json:"failed,omitempty"`
	Err      string    `json:"err,omitempty"`
}

const sessionCheckpointVersion = 2

// Checkpoint serializes the session's complete state — including the
// pending-proposal ledger, so a resumed session can hand the same batch
// back out and keep accepting results under the original ids. The
// session stays usable; checkpointing is a read-only operation.
func (s *Session) Checkpoint() ([]byte, error) {
	cp := sessionCheckpoint{
		Version:        sessionCheckpointVersion,
		Problem:        s.problem.Name,
		Proposer:       s.proposer.Name(),
		Budget:         s.opts.Budget,
		Seed:           s.opts.Seed,
		Iter:           s.iter,
		RNGState:       s.src.State(),
		NextProposalID: s.nextPropID,
	}
	cp.Samples = make([]checkpointSample, len(s.h.Samples))
	for i, smp := range s.h.Samples {
		cp.Samples[i] = checkpointSample{
			U: smp.ParamU, Y: smp.Y, Failed: smp.Failed, Err: smp.Err, Proposer: smp.Proposer,
		}
	}
	if len(s.ledger) > 0 {
		cp.Ledger = make([]checkpointPending, len(s.ledger))
		for i, e := range s.ledger {
			cp.Ledger[i] = checkpointPending{
				ID: e.id, U: e.u, Lie: e.lie, Observed: e.observed,
				Y: e.y, Failed: e.failed, Err: e.errMsg,
			}
		}
	}
	if sp, ok := s.proposer.(StatefulProposer); ok {
		state, err := sp.StateCheckpoint()
		if err != nil {
			return nil, fmt.Errorf("core: proposer %s state checkpoint: %w", s.proposer.Name(), err)
		}
		cp.ProposerState = state
	}
	return json.Marshal(cp)
}

// ResumeSession restores a session from a checkpoint. The problem and
// proposer must match the ones the checkpoint was taken with (compared
// by name); opts.Budget, when larger than the checkpoint's, extends the
// run — otherwise the checkpointed budget is kept, so passing the
// original options verbatim resumes exactly.
//
// Resume is bit-identical — the continued run produces exactly the
// samples the uninterrupted run would have — for every proposer whose
// decisions are a function of the history, the RNG stream and whatever
// it carries through StatefulProposer: every row of the tuner table.
func ResumeSession(p *Problem, task map[string]interface{}, proposer Proposer, opts SessionOptions, checkpoint []byte) (*Session, error) {
	var cp sessionCheckpoint
	if err := json.Unmarshal(checkpoint, &cp); err != nil {
		return nil, fmt.Errorf("core: bad session checkpoint: %w", err)
	}
	if cp.Version != sessionCheckpointVersion {
		return nil, fmt.Errorf("core: unsupported checkpoint version %d", cp.Version)
	}
	if err := validateSessionProblem(p); err != nil {
		return nil, err
	}
	if cp.Problem != "" && cp.Problem != p.Name {
		return nil, fmt.Errorf("core: checkpoint is for problem %q, not %q", cp.Problem, p.Name)
	}
	if proposer == nil {
		return nil, errors.New("core: session needs a proposer")
	}
	if cp.Proposer != "" && cp.Proposer != proposer.Name() {
		return nil, fmt.Errorf("core: checkpoint was taken with proposer %q, not %q", cp.Proposer, proposer.Name())
	}
	if opts.Budget < cp.Budget {
		opts.Budget = cp.Budget
	}
	opts.Seed = cp.Seed
	s, err := NewSession(p, task, proposer, opts)
	if err != nil {
		return nil, err
	}
	dim := p.ParamSpace.Dim()
	for i, smp := range cp.Samples {
		if len(smp.U) != dim {
			return nil, fmt.Errorf("core: checkpoint sample %d has dimension %d, want %d", i, len(smp.U), dim)
		}
		// Checkpoints can arrive through the crowd task pool, so their
		// numeric content is untrusted: a NaN coordinate would corrupt
		// Decode and every later fit.
		for d, u := range smp.U {
			if math.IsNaN(u) || math.IsInf(u, 0) {
				return nil, fmt.Errorf("core: checkpoint sample %d has non-finite coordinate %v at dim %d", i, u, d)
			}
		}
		if !smp.Failed && (math.IsNaN(smp.Y) || math.IsInf(smp.Y, 0)) {
			return nil, fmt.Errorf("core: checkpoint sample %d has non-finite objective %v", i, smp.Y)
		}
		s.h.Append(Sample{
			ParamU:   smp.U,
			Params:   p.ParamSpace.Decode(smp.U),
			Y:        smp.Y,
			Failed:   smp.Failed,
			Err:      smp.Err,
			Proposer: smp.Proposer,
		})
	}
	if cp.Iter != len(cp.Samples) {
		return nil, fmt.Errorf("core: checkpoint iter %d does not match %d samples", cp.Iter, len(cp.Samples))
	}
	s.iter = cp.Iter
	var maxID uint64
	for i, pe := range cp.Ledger {
		if pe.ID == 0 || pe.ID <= maxID {
			return nil, fmt.Errorf("core: checkpoint ledger entry %d has non-increasing id %d", i, pe.ID)
		}
		maxID = pe.ID
		if len(pe.U) != dim {
			return nil, fmt.Errorf("core: checkpoint ledger entry %d has dimension %d, want %d", i, len(pe.U), dim)
		}
		for d, u := range pe.U {
			if math.IsNaN(u) || math.IsInf(u, 0) {
				return nil, fmt.Errorf("core: checkpoint ledger entry %d has non-finite coordinate %v at dim %d", i, u, d)
			}
		}
		if math.IsNaN(pe.Lie) || math.IsInf(pe.Lie, 0) {
			return nil, fmt.Errorf("core: checkpoint ledger entry %d has non-finite lie %v", i, pe.Lie)
		}
		if pe.Observed && !pe.Failed && (math.IsNaN(pe.Y) || math.IsInf(pe.Y, 0)) {
			return nil, fmt.Errorf("core: checkpoint ledger entry %d has non-finite objective %v", i, pe.Y)
		}
		s.ledger = append(s.ledger, &pendingEntry{
			id: pe.ID, u: pe.U, lie: pe.Lie, observed: pe.Observed,
			y: pe.Y, failed: pe.Failed, errMsg: pe.Err,
		})
	}
	s.nextPropID = maxID + 1
	if cp.NextProposalID > s.nextPropID {
		s.nextPropID = cp.NextProposalID
	}
	if len(cp.ProposerState) > 0 {
		if sp, ok := proposer.(StatefulProposer); ok {
			if err := sp.RestoreState(cp.ProposerState); err != nil {
				return nil, fmt.Errorf("core: proposer %s state restore: %w", proposer.Name(), err)
			}
		}
	}
	// A checkpoint taken mid-commit (or hand-edited) may carry an
	// observed prefix; fold it into the history silently — restoration
	// is reconstruction, not a live observation.
	s.commitObserved(false)
	s.src.SetState(cp.RNGState)
	return s, nil
}
