package core

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// fuzzProposer is a cheap deterministic proposer (no surrogate fits) so
// the fuzzer spends its budget on ledger state transitions, not GP
// algebra.
type fuzzProposer struct{}

func (fuzzProposer) Name() string { return "fuzz-space-fill" }

func (fuzzProposer) Propose(ctx *ProposeContext) ([]float64, error) {
	return RandomPoint(ctx.Problem.ParamSpace, ctx.Rng), nil
}

// FuzzBatchObserve drives the pending-proposal ledger with an arbitrary
// op stream — proposals, in-order / shuffled / duplicated / stale /
// unknown / non-finite observations, and mid-stream checkpoint-resume —
// and asserts the ledger invariants after every op:
//
//   - committed + in-flight never exceeds the budget;
//   - ledger ids are strictly increasing and history length equals Iter;
//   - ObserveProposal never panics and fails only with its three
//     documented sentinels;
//   - a checkpoint taken at any point round-trips bit-identically.
func FuzzBatchObserve(f *testing.F) {
	// Seeds cover the interesting shapes: plain in-order ingestion,
	// shuffled arrival, duplicated and stale ids, non-finite objectives,
	// and a mid-stream resume. Mirrored in testdata/fuzz/FuzzBatchObserve.
	f.Add([]byte{0, 3, 1, 0, 1, 1, 1, 0})
	f.Add([]byte{0, 3, 1, 2, 1, 0, 2, 1, 2, 1, 1, 1})
	f.Add([]byte{0, 2, 2, 7, 2, 0, 2, 200, 1, 5})
	f.Add([]byte{0, 3, 3, 0, 3, 1, 3, 2, 0, 2})
	f.Add([]byte{0, 3, 1, 1, 4, 0, 1, 0, 4, 0, 1, 0, 0, 1})
	f.Add([]byte{1, 0, 3, 1, 2, 1, 0, 0, 3, 4, 0, 1, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		p := quadProblem(t)
		const budget = 12
		opts := SessionOptions{Budget: budget, Seed: 5}
		s, err := NewSession(p, nil, fuzzProposer{}, opts)
		if err != nil {
			t.Fatal(err)
		}

		observe := func(id uint64, y float64, evalErr error) {
			err := s.ObserveProposal(id, y, evalErr)
			if err != nil &&
				!errors.Is(err, ErrStaleObservation) &&
				!errors.Is(err, ErrDuplicateObservation) &&
				!errors.Is(err, ErrUnknownProposal) {
				t.Fatalf("observe %d: unexpected error %v", id, err)
			}
		}
		check := func() {
			if s.Iter()+s.InFlight() > budget {
				t.Fatalf("budget overrun: %d committed + %d in flight > %d",
					s.Iter(), s.InFlight(), budget)
			}
			if s.History().Len() != s.Iter() {
				t.Fatalf("history len %d != iter %d", s.History().Len(), s.Iter())
			}
			var prev uint64
			for _, e := range s.ledger {
				if e.id <= prev {
					t.Fatalf("ledger ids not strictly increasing: %d after %d", e.id, prev)
				}
				prev = e.id
			}
		}

		// data[0] is a header byte the op stream skips, so the seed
		// corpus keeps its op alignment.
		stream := data[1:]
		for j := 0; j+1 < len(stream); j += 2 {
			op, arg := stream[j], stream[j+1]
			switch op % 5 {
			case 0: // propose a small batch
				k := 1 + int(arg%4)
				if _, err := s.ProposeBatch(k); err != nil && !errors.Is(err, ErrBudgetExhausted) {
					t.Fatalf("propose %d: %v", k, err)
				}
			case 1: // observe a pending proposal (arbitrary position)
				pend := s.PendingProposals()
				if len(pend) == 0 {
					continue
				}
				p := pend[int(arg)%len(pend)]
				observe(p.ID, 1+float64(arg)/7, nil)
			case 2: // arbitrary id: unknown, stale or pending
				observe(uint64(arg), float64(arg), nil)
			case 3: // failures: eval errors and non-finite objectives
				pend := s.PendingProposals()
				if len(pend) == 0 {
					continue
				}
				p := pend[int(arg)%len(pend)]
				switch arg % 3 {
				case 0:
					observe(p.ID, 0, errors.New("fuzz failure"))
				case 1:
					observe(p.ID, math.NaN(), nil)
				default:
					observe(p.ID, math.Inf(1), nil)
				}
			case 4: // checkpoint round-trip mid-stream
				cp, err := s.Checkpoint()
				if err != nil {
					t.Fatalf("checkpoint: %v", err)
				}
				r, err := ResumeSession(p, nil, fuzzProposer{}, opts, cp)
				if err != nil {
					t.Fatalf("resume: %v", err)
				}
				cp2, err := r.Checkpoint()
				if err != nil {
					t.Fatalf("re-checkpoint: %v", err)
				}
				if !bytes.Equal(cp, cp2) {
					t.Fatalf("checkpoint not stable across resume:\n%s\nvs\n%s", cp, cp2)
				}
				s = r
			}
			check()
		}

		// Final round-trip: pending batches must survive serialization.
		cp, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		r, err := ResumeSession(p, nil, fuzzProposer{}, opts, cp)
		if err != nil {
			t.Fatal(err)
		}
		if r.InFlight() != s.InFlight() || r.Iter() != s.Iter() {
			t.Fatalf("resume drifted: iter %d/%d, in-flight %d/%d",
				r.Iter(), s.Iter(), r.InFlight(), s.InFlight())
		}
	})
}
