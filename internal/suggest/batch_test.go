package suggest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// batchService builds a service whose every request fully syncs first
// (maxStale 1), so liar bookkeeping is deterministic in tests; liars
// expire after ttl problem generations.
func batchService(src Source, ttl int) *Service {
	s, _ := newKindService(src, Config{Seed: 1})
	s.maxStale, s.liarTTL = 1, ttl
	return s
}

func distinct(t *testing.T, props []Proposal) {
	t.Helper()
	for i := range props {
		for j := i + 1; j < len(props); j++ {
			if pointsClose(props[i].ParamU, props[j].ParamU, 1e-9) {
				t.Fatalf("proposals %d and %d coincide at %v", i, j, props[i].ParamU)
			}
		}
	}
}

func TestSuggestBatchDistinctProposals(t *testing.T) {
	forEachKind(t, func(t *testing.T, k servedKind) {
		src := newFakeSource()
		seedHistory(src, "app", 10)
		s := batchService(src, 4)
		ctx := context.Background()

		r, err := s.Suggest(ctx, Request{Problem: "app", Surrogate: k.name, Batch: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Proposals) != 4 {
			t.Fatalf("got %d proposals, want 4", len(r.Proposals))
		}
		distinct(t, r.Proposals)
		if r.ParamU == nil || !pointsClose(r.ParamU, r.Proposals[0].ParamU, 0) {
			t.Fatalf("legacy ParamU %v does not mirror Proposals[0] %v", r.ParamU, r.Proposals[0].ParamU)
		}
		if r.ModelSamples != 10 {
			t.Fatalf("ModelSamples = %d, want 10", r.ModelSamples)
		}
		st := s.Stats()
		if st.BatchRequests != 1 || st.BatchProposals != 4 || st.LiarsActive != 4 {
			t.Fatalf("stats = %+v, want 1 batch request, 4 proposals, 4 active liars", st)
		}

		// A follow-up single suggestion must steer clear of the liars.
		r2, err := s.Suggest(ctx, Request{Problem: "app", Surrogate: k.name})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range r.Proposals {
			if pointsClose(r2.ParamU, p.ParamU, 1e-9) {
				t.Fatalf("single follow-up collided with outstanding liar %d at %v", i, p.ParamU)
			}
		}
	})
}

func TestSuggestBatchOversizeRejected(t *testing.T) {
	src := newFakeSource()
	seedHistory(src, "app", 6)
	s := New(src, Config{Seed: 1})
	s.maxBatch = 4
	if _, err := s.Suggest(context.Background(), Request{Problem: "app", Batch: 5}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("oversize batch: got %v, want ErrBadRequest", err)
	}
}

func TestSuggestBatchColdStartSpaceFill(t *testing.T) {
	src := newFakeSource()
	src.add("app", []float64{0.5, 0.5}, 1) // 1 row: below the 2-sample surrogate floor
	s := batchService(src, 4)
	r, err := s.Suggest(context.Background(), Request{Problem: "app", Batch: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Proposer != "suggest/space-fill" {
		t.Fatalf("Proposer = %q", r.Proposer)
	}
	if len(r.Proposals) != 3 {
		t.Fatalf("got %d proposals, want 3", len(r.Proposals))
	}
	distinct(t, r.Proposals)
	if st := s.Stats(); st.LiarsActive != 0 {
		t.Fatalf("space-fill recorded liars: %+v", st)
	}
}

// TestSuggestLiarRetiredExactlyOnce pins the retirement contract: when
// the real sample for a batch-served point is uploaded and absorbed,
// exactly one liar retires — and a duplicate upload of the same point
// retires nothing further.
func TestSuggestLiarRetiredExactlyOnce(t *testing.T) {
	forEachKind(t, func(t *testing.T, k servedKind) {
		src := newFakeSource()
		seedHistory(src, "app", 10)
		s := batchService(src, 1000)
		ctx := context.Background()

		r, err := s.Suggest(ctx, Request{Problem: "app", Surrogate: k.name, Batch: 3})
		if err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.LiarsActive != 3 {
			t.Fatalf("active liars = %d, want 3", st.LiarsActive)
		}

		// The worker reports the middle proposal: its liar must retire on
		// the next sync, the other two must stay.
		evaluated := r.Proposals[1].ParamU
		src.add("app", append([]float64(nil), evaluated...), 0.25)
		s.NotifyAppend("app", 1)
		if _, err := s.Suggest(ctx, Request{Problem: "app", Surrogate: k.name}); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.LiarsRetired != 1 || st.LiarsActive != 2 {
			t.Fatalf("after one matching upload: %+v, want 1 retired / 2 active", st)
		}

		// A duplicate upload of the same point must not retire a second
		// liar: the slot is already gone.
		src.add("app", append([]float64(nil), evaluated...), 0.27)
		s.NotifyAppend("app", 1)
		if _, err := s.Suggest(ctx, Request{Problem: "app", Surrogate: k.name}); err != nil {
			t.Fatal(err)
		}
		st = s.Stats()
		if st.LiarsRetired != 1 || st.LiarsActive != 2 {
			t.Fatalf("after duplicate upload: %+v, want still 1 retired / 2 active", st)
		}
	})
}

// TestSuggestLiarExpiry: liars the crowd never reports back expire
// after liarTTL problem generations instead of haunting every batch.
func TestSuggestLiarExpiry(t *testing.T) {
	forEachKind(t, func(t *testing.T, k servedKind) {
		src := newFakeSource()
		seedHistory(src, "app", 10)
		s := batchService(src, 2) // expire after 2 generations
		ctx := context.Background()

		if _, err := s.Suggest(ctx, Request{Problem: "app", Surrogate: k.name, Batch: 3}); err != nil {
			t.Fatal(err)
		}
		// Advance the generation clock with unrelated uploads, far from the
		// proposals, syncing each time.
		for i := 0; i < 4; i++ {
			src.add("app", []float64{0.01 * float64(i+1), 0.97}, 2+float64(i))
			s.NotifyAppend("app", 1)
			if _, err := s.Suggest(ctx, Request{Problem: "app", Surrogate: k.name}); err != nil {
				t.Fatal(err)
			}
		}
		st := s.Stats()
		if st.LiarsActive != 0 {
			t.Fatalf("liars never expired: %+v", st)
		}
		if st.LiarsExpired != 3 || st.LiarsRetired != 0 {
			t.Fatalf("expiry accounting: %+v, want 3 expired / 0 retired", st)
		}
	})
}

// auditLiarBooks checks the two ledger invariants: every issued batch
// point is active, retired or expired, and the active gauge is exactly
// what the cached entries hold.
func auditLiarBooks(t *testing.T, s *Service) {
	t.Helper()
	st := s.Stats()
	if st.LiarsActive+st.LiarsRetired+st.LiarsExpired != st.BatchProposals {
		t.Fatalf("liar books do not balance: active %d + retired %d + expired %d != issued %d",
			st.LiarsActive, st.LiarsRetired, st.LiarsExpired, st.BatchProposals)
	}
	held := 0
	s.mu.Lock()
	for _, e := range s.entries {
		e.mu.RLock()
		held += len(e.liars)
		e.mu.RUnlock()
	}
	s.mu.Unlock()
	if st.LiarsActive != int64(held) {
		t.Fatalf("liar gauge %d != %d liars held by cached entries", st.LiarsActive, held)
	}
}

// TestSuggestEvictionSettlesLiars: an evicted entry takes its ledger
// with it, so its liars must leave the active gauge — as expired, since
// nothing can retire them any more.
func TestSuggestEvictionSettlesLiars(t *testing.T) {
	src := newFakeSource()
	s := New(src, Config{Seed: 1})
	s.cacheSize = 2
	for i := 0; i < 4; i++ {
		problem := fmt.Sprintf("app%d", i)
		seedHistory(src, problem, 6)
		if _, err := s.Suggest(context.Background(), Request{Problem: problem, Batch: 4}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions != 2 || st.LiarsActive != 8 || st.LiarsExpired != 8 {
		t.Fatalf("evictions=%d active=%d expired=%d, want 2 evictions, 8 liars cached, 8 expired with their entries",
			st.Evictions, st.LiarsActive, st.LiarsExpired)
	}
	auditLiarBooks(t, s)

	// A request that was still searching when its entry got evicted
	// books its points as expired too.
	evicted := &entry{problem: "app0", evicted: true}
	s.batchProps.Add(2)
	s.recordLiars(evicted, []liar{{u: []float64{0.1, 0.2}}, {u: []float64{0.3, 0.4}}})
	if len(evicted.liars) != 0 {
		t.Fatalf("evicted entry kept %d liars", len(evicted.liars))
	}
	auditLiarBooks(t, s)
}

// TestSuggestStalenessClockMonotone is the double-count regression pin:
// a sync that raced a concurrent NotifyAppend (the crowd server inserts
// first, notifies second, so a flight can fetch rows its generation
// does not cover yet) must never roll lastSeen or version backwards —
// a regressed clock would re-open the staleness gap and let a later
// sync double-absorb rows the model already contains.
func TestSuggestStalenessClockMonotone(t *testing.T) {
	src := newFakeSource()
	seedHistory(src, "app", 10)
	s := batchService(src, 4)
	ctx := context.Background()

	s.NotifyAppend("app", 10)
	if _, err := s.Suggest(ctx, Request{Problem: "app"}); err != nil {
		t.Fatal(err)
	}
	e := s.entries["app\x1f{}\x1fgp"]
	e.mu.RLock()
	v0, seen0 := e.version, e.lastSeen
	e.mu.RUnlock()
	if seen0 != 10 || v0 != 10 {
		t.Fatalf("primed entry at version %d / lastSeen %d, want 10/10", v0, seen0)
	}

	// Replay a stale flight: an old snapshot applied under an old
	// generation token. Neither clock may move backwards.
	s.apply(ctx, e, &Snapshot{Space: testSpace, Version: 4}, 2)
	e.mu.RLock()
	v1, seen1 := e.version, e.lastSeen
	e.mu.RUnlock()
	if v1 != v0 || seen1 != seen0 {
		t.Fatalf("stale apply regressed the clock: version %d→%d, lastSeen %d→%d", v0, v1, seen0, seen1)
	}
}

// TestSuggestConcurrentUploadsAndBatches hammers the upload-notify-
// suggest triangle under the race detector, over more problems than the
// cache holds so entries are evicted under the requests using them:
// generations only advance, the liar gauge matches the ledgers, and
// nothing double-counts.
func TestSuggestConcurrentUploadsAndBatches(t *testing.T) {
	src := newFakeSource()
	problems := []string{"app", "app1", "app2"}
	for _, p := range problems {
		seedHistory(src, p, 10)
	}
	s := New(src, Config{Seed: 1})
	s.maxStale, s.liarTTL, s.cacheSize = 4, 1000, 2
	ctx := context.Background()
	if _, err := s.Suggest(ctx, Request{Problem: "app"}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				src.add("app", []float64{float64(g)/17 + 0.3, float64(i) / 11}, float64(g+i))
				s.NotifyAppend("app", 1)
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if _, err := s.Suggest(ctx, Request{Problem: problems[(g+i)%3], Batch: 1 + (g+i)%3}); err != nil {
					t.Errorf("suggest: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Force a final full sync, then audit the books.
	if _, err := s.Suggest(ctx, Request{Problem: "app", Batch: 2}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Evictions == 0 {
		t.Fatal("no entry was evicted; the audit below would not cover eviction")
	}
	auditLiarBooks(t, s)
	e := s.entries["app\x1f{}\x1fgp"]
	e.mu.RLock()
	seen := e.lastSeen
	e.mu.RUnlock()
	if gen := s.gen("app").Load(); seen > gen {
		t.Fatalf("lastSeen %d ran ahead of the generation counter %d", seen, gen)
	}
}

// TestSuggestBatchStatsOmitsSingles: plain single-proposal requests do
// not count as batch traffic.
func TestSuggestBatchStatsOmitsSingles(t *testing.T) {
	src := newFakeSource()
	seedHistory(src, "app", 8)
	s := batchService(src, 4)
	for i := 0; i < 3; i++ {
		if _, err := s.Suggest(context.Background(), Request{Problem: "app"}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.BatchRequests != 0 || st.BatchProposals != 0 {
		t.Fatalf("singles counted as batches: %+v", st)
	}
	if st.Requests != 3 {
		t.Fatalf("requests = %d, want 3", st.Requests)
	}
}
