package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// evalU is the deterministic objective the batch tests use: a smooth
// bowl over the normalized cube, computable from ParamU alone so a
// result can be produced for any proposal without decoding.
func evalU(u []float64) float64 {
	s := 0.5
	for i, v := range u {
		d := v - 0.3 - 0.1*float64(i)
		s += d * d
	}
	return s
}

func newBatchSession(t *testing.T, budget int, cfg BatchConfig) *Session {
	t.Helper()
	s, err := NewSession(quadProblem(t), nil, NewGPTuner(), SessionOptions{
		Budget: budget, Seed: 17, Batch: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runBatched drives a session through rounds of ProposeBatch(k),
// ingesting each round's results in the order perm dictates, and
// returns the checkpoint plus the next batch proposed after the last
// round — the two artifacts that must be bit-identical regardless of
// ingestion order.
func runBatched(t *testing.T, cfg BatchConfig, rounds, k int, perm func(n, round int) []int) ([]byte, []PendingProposal) {
	t.Helper()
	s := newBatchSession(t, rounds*k+k, cfg)
	for round := 0; round < rounds; round++ {
		props, err := s.ProposeBatch(k)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(props) != k {
			t.Fatalf("round %d: got %d proposals, want %d", round, len(props), k)
		}
		for _, i := range perm(len(props), round) {
			p := props[i]
			var evalErr error
			y := evalU(p.ParamU)
			if p.ID%5 == 0 {
				// Sprinkle failures so the order-invariance claim covers
				// failed samples too.
				evalErr = fmt.Errorf("synthetic failure for proposal %d", p.ID)
			}
			if err := s.ObserveProposal(p.ID, y, evalErr); err != nil {
				t.Fatalf("observe %d: %v", p.ID, err)
			}
		}
		if s.InFlight() != 0 {
			t.Fatalf("round %d: %d still in flight after full ingestion", round, s.InFlight())
		}
	}
	next, err := s.ProposeBatch(k)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return cp, next
}

func proposalsEqual(a, b []PendingProposal) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || len(a[i].ParamU) != len(b[i].ParamU) {
			return false
		}
		for d := range a[i].ParamU {
			if a[i].ParamU[d] != b[i].ParamU[d] {
				return false
			}
		}
	}
	return true
}

// TestBatchIngestionOrderInvariant is the determinism property test:
// feeding the same result set in id order, reversed, or shuffled must
// leave bit-identical session state (checkpoint bytes) and produce a
// bit-identical next batch — for both batch strategies and for both the
// serial and the fanned-out numeric engine.
func TestBatchIngestionOrderInvariant(t *testing.T) {
	identity := func(n, _ int) []int {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	reversed := func(n, _ int) []int {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = n - 1 - i
		}
		return idx
	}
	shuffled := func(n, round int) []int {
		idx := identity(n, round)
		rng := rand.New(rand.NewSource(int64(100 + round)))
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		return idx
	}

	for _, workers := range []string{"1", "4"} {
		for _, strategy := range []string{BatchConstantLiar, BatchLocalPenalization} {
			t.Run(fmt.Sprintf("workers=%s/%s", workers, strategy), func(t *testing.T) {
				t.Setenv("GPTUNE_WORKERS", workers)
				cfg := BatchConfig{Strategy: strategy}
				cpWant, nextWant := runBatched(t, cfg, 3, 4, identity)
				for name, perm := range map[string]func(int, int) []int{
					"reversed": reversed, "shuffled": shuffled,
				} {
					cp, next := runBatched(t, cfg, 3, 4, perm)
					if !bytes.Equal(cpWant, cp) {
						t.Errorf("%s ingestion: checkpoint differs from in-order", name)
					}
					if !proposalsEqual(nextWant, next) {
						t.Errorf("%s ingestion: next batch differs from in-order", name)
					}
				}
			})
		}
	}
}

// TestBatchWorkerCountInvariant pins the cross-worker-count half of the
// determinism contract: the same schedule under GPTUNE_WORKERS=1 and =4
// yields bit-identical checkpoints.
func TestBatchWorkerCountInvariant(t *testing.T) {
	identity := func(n, _ int) []int {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	run := func(workers string) []byte {
		var cp []byte
		t.Run("w"+workers, func(t *testing.T) {
			t.Setenv("GPTUNE_WORKERS", workers)
			cp, _ = runBatched(t, BatchConfig{}, 3, 4, identity)
		})
		return cp
	}
	if !bytes.Equal(run("1"), run("4")) {
		t.Fatal("checkpoint differs between GPTUNE_WORKERS=1 and =4")
	}
}

// TestBatchProposalsDistinct checks that one batch spreads out: no two
// points of the same batch may collide within the dedup tolerance, for
// either strategy.
func TestBatchProposalsDistinct(t *testing.T) {
	for _, strategy := range []string{BatchConstantLiar, BatchLocalPenalization} {
		t.Run(strategy, func(t *testing.T) {
			s := newBatchSession(t, 16, BatchConfig{Strategy: strategy})
			props, err := s.ProposeBatch(6)
			if err != nil {
				t.Fatal(err)
			}
			for i := range props {
				for j := i + 1; j < len(props); j++ {
					same := true
					for d := range props[i].ParamU {
						diff := props[i].ParamU[d] - props[j].ParamU[d]
						if diff > 1e-9 || diff < -1e-9 {
							same = false
							break
						}
					}
					if same {
						t.Fatalf("proposals %d and %d coincide at %v", props[i].ID, props[j].ID, props[i].ParamU)
					}
				}
			}
		})
	}
}

// TestBatchObserveErrors pins the out-of-order error taxonomy: unknown
// ids, duplicate results for a pending proposal, and late results for a
// committed one each get their own sentinel and leave state untouched.
func TestBatchObserveErrors(t *testing.T) {
	s := newBatchSession(t, 10, BatchConfig{})
	props, err := s.ProposeBatch(3)
	if err != nil {
		t.Fatal(err)
	}

	if err := s.ObserveProposal(99, 1, nil); !errors.Is(err, ErrUnknownProposal) {
		t.Fatalf("unknown id: got %v", err)
	}
	if err := s.ObserveProposal(0, 1, nil); !errors.Is(err, ErrUnknownProposal) {
		t.Fatalf("id 0: got %v", err)
	}

	// Observe the middle proposal out of order: it buffers (nothing
	// commits — proposal 1 has no result yet).
	if err := s.ObserveProposal(props[1].ID, 2.5, nil); err != nil {
		t.Fatal(err)
	}
	if s.Iter() != 0 {
		t.Fatalf("iter %d after buffering an out-of-order result, want 0", s.Iter())
	}
	if err := s.ObserveProposal(props[1].ID, 9.9, nil); !errors.Is(err, ErrDuplicateObservation) {
		t.Fatalf("duplicate: got %v", err)
	}

	// The head result commits both buffered entries in id order.
	if err := s.ObserveProposal(props[0].ID, 1.5, nil); err != nil {
		t.Fatal(err)
	}
	if s.Iter() != 2 {
		t.Fatalf("iter %d after head commit, want 2", s.Iter())
	}
	if got := s.History().Samples[1].Y; got != 2.5 {
		t.Fatalf("buffered result committed with Y=%v, want 2.5 (first result must stand)", got)
	}
	if err := s.ObserveProposal(props[0].ID, 1.5, nil); !errors.Is(err, ErrStaleObservation) {
		t.Fatalf("stale: got %v", err)
	}
	if s.InFlight() != 1 {
		t.Fatalf("in flight %d, want 1", s.InFlight())
	}
}

// TestBatchCheckpointResumePending proves pending batches are
// resumable: checkpoint with buffered and unobserved entries, resume,
// and require the identical pending set and a bit-identical finish.
func TestBatchCheckpointResumePending(t *testing.T) {
	finish := func(s *Session) []byte {
		t.Helper()
		for s.InFlight() > 0 {
			for _, p := range s.PendingProposals() {
				if err := s.ObserveProposal(p.ID, evalU(p.ParamU), nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		cp, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}

	s := newBatchSession(t, 8, BatchConfig{})
	props, err := s.ProposeBatch(4)
	if err != nil {
		t.Fatal(err)
	}
	// Observe the last proposal only: it buffers behind three
	// unobserved entries and must survive the round-trip.
	if err := s.ObserveProposal(props[3].ID, evalU(props[3].ParamU), nil); err != nil {
		t.Fatal(err)
	}
	cp, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	r, err := ResumeSession(quadProblem(t), nil, NewGPTuner(), SessionOptions{Budget: 8, Seed: 17}, cp)
	if err != nil {
		t.Fatal(err)
	}
	want := s.PendingProposals()
	got := r.PendingProposals()
	if !proposalsEqual(want, got) {
		t.Fatalf("pending proposals drifted across resume:\nwant %+v\ngot  %+v", want, got)
	}
	if r.InFlight() != 4 {
		t.Fatalf("in flight %d after resume, want 4", r.InFlight())
	}
	if !bytes.Equal(finish(s), finish(r)) {
		t.Fatal("original and resumed sessions diverged after identical results")
	}
}

// TestProposeBatchBudget pins budget accounting: k clamps to the
// remaining room, and a full ledger surfaces ErrBudgetExhausted.
func TestProposeBatchBudget(t *testing.T) {
	s := newBatchSession(t, 5, BatchConfig{})
	props, err := s.ProposeBatch(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 5 {
		t.Fatalf("clamp: got %d proposals, want 5", len(props))
	}
	if _, err := s.ProposeBatch(1); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("full ledger: got %v, want ErrBudgetExhausted", err)
	}
	if _, err := s.ProposeBatch(0); err == nil {
		t.Fatal("k=0 accepted")
	}
	// Single-proposal Propose stays idempotent: with the ledger full it
	// re-issues the oldest unobserved point instead of erroring.
	params, err := s.Propose()
	if err != nil {
		t.Fatalf("idempotent propose with full ledger: %v", err)
	}
	for k, v := range props[0].Params {
		if params[k] != v {
			t.Fatalf("idempotent propose returned %v, want oldest pending %v", params, props[0].Params)
		}
	}
}

// TestProposeBatchCancellation: a cancel between points keeps the short
// batch in the ledger and surfaces the context error.
func TestProposeBatchCancellation(t *testing.T) {
	s := newBatchSession(t, 10, BatchConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	props, err := s.ProposeBatchContext(ctx, 3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if len(props) != 0 || s.InFlight() != 0 {
		t.Fatalf("cancelled before the first point: %d returned, %d in flight", len(props), s.InFlight())
	}
	// A live context proposes normally afterwards.
	props, err = s.ProposeBatch(2)
	if err != nil || len(props) != 2 {
		t.Fatalf("after cancel: %d proposals, err %v", len(props), err)
	}
}

// TestBatchConfigValidation rejects unknown strategies and bad radii.
func TestBatchConfigValidation(t *testing.T) {
	p := quadProblem(t)
	if _, err := NewSession(p, nil, NewGPTuner(), SessionOptions{
		Budget: 4, Batch: BatchConfig{Strategy: "kriging-believer"},
	}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if _, err := NewSession(p, nil, NewGPTuner(), SessionOptions{
		Budget: 4, Batch: BatchConfig{LPRadius: -1},
	}); err == nil {
		t.Fatal("negative radius accepted")
	}
}

// TestSingleProposeInteropWithBatch: Propose/Observe and the batch API
// share one ledger — mixed use keeps ids and ordering coherent.
func TestSingleProposeInteropWithBatch(t *testing.T) {
	s := newBatchSession(t, 6, BatchConfig{})
	if _, err := s.Propose(); err != nil {
		t.Fatal(err)
	}
	// Propose is idempotent while its point is outstanding.
	if _, err := s.Propose(); err != nil {
		t.Fatal(err)
	}
	if s.InFlight() != 1 {
		t.Fatalf("in flight %d after idempotent Propose, want 1", s.InFlight())
	}
	props, err := s.ProposeBatch(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ObserveProposal(props[1].ID, 1.25, nil); err != nil {
		t.Fatal(err)
	}
	// Observe resolves the oldest unobserved entry: the Propose point.
	if err := s.Observe(3.5, nil); err != nil {
		t.Fatal(err)
	}
	if s.Iter() != 1 {
		t.Fatalf("iter %d, want 1 (batch head still pending)", s.Iter())
	}
	if err := s.ObserveProposal(props[0].ID, 2.5, nil); err != nil {
		t.Fatal(err)
	}
	if s.Iter() != 3 || s.InFlight() != 0 {
		t.Fatalf("iter %d in-flight %d, want 3 and 0", s.Iter(), s.InFlight())
	}
	ys := []float64{3.5, 2.5, 1.25}
	for i, want := range ys {
		if got := s.History().Samples[i].Y; got != want {
			t.Fatalf("sample %d: Y=%v, want %v (id-order commit)", i, got, want)
		}
	}
}
