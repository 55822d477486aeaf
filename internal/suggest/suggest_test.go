package suggest

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gptunecrowd/internal/space"
)

var testSpace = space.MustNew(
	space.Param{Name: "a", Kind: space.Real, Lo: 0, Hi: 1},
	space.Param{Name: "b", Kind: space.Real, Lo: 0, Hi: 1},
)

// fakeSource is a thread-safe in-memory Source with an optional gate
// that blocks History calls until released.
type fakeSource struct {
	mu    sync.Mutex
	space *space.Space     // served with every snapshot (default testSpace)
	rows  map[string][]row // problem → rows
	calls atomic.Int64
	gate  chan struct{} // when non-nil, History blocks on it
	err   error
}

type row struct {
	x []float64
	y float64
}

func newFakeSource() *fakeSource {
	return &fakeSource{space: testSpace, rows: map[string][]row{}}
}

func (f *fakeSource) add(problem string, x []float64, y float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rows[problem] = append(f.rows[problem], row{x: x, y: y})
}

func (f *fakeSource) History(ctx context.Context, problem string, task map[string]interface{}) (*Snapshot, error) {
	f.calls.Add(1)
	f.mu.Lock()
	gate, err := f.gate, f.err
	f.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	rows := f.rows[problem]
	snap := &Snapshot{Space: f.space, Version: uint64(len(rows))}
	for _, r := range rows {
		snap.X = append(snap.X, append([]float64(nil), r.x...))
		snap.Y = append(snap.Y, r.y)
	}
	return snap, nil
}

func seedHistory(src *fakeSource, problem string, n int) {
	for i := 0; i < n; i++ {
		x := []float64{float64(i%7) / 7.0, float64(i%5) / 5.0}
		src.add(problem, x, math.Sin(3*x[0])+x[1]*x[1])
	}
}

func TestSuggestServesAndCaches(t *testing.T) {
	src := newFakeSource()
	seedHistory(src, "app", 10)
	s := New(src, Config{Seed: 1})
	ctx := context.Background()

	r1, err := s.Suggest(ctx, Request{Problem: "app"})
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit {
		t.Fatal("first request reported a cache hit")
	}
	if r1.ModelSamples != 10 || r1.ModelVersion != 10 {
		t.Fatalf("ModelSamples=%d ModelVersion=%d, want 10/10", r1.ModelSamples, r1.ModelVersion)
	}
	if r1.Proposer != "suggest/ei" {
		t.Fatalf("Proposer = %q", r1.Proposer)
	}
	if len(r1.ParamU) != 2 || len(r1.Params) != 2 {
		t.Fatalf("malformed proposal %+v", r1)
	}
	for _, name := range []string{"a", "b"} {
		v, ok := r1.Params[name].(float64)
		if !ok || v < 0 || v > 1 {
			t.Fatalf("parameter %s = %v out of range", name, r1.Params[name])
		}
	}

	r2, err := s.Suggest(ctx, Request{Problem: "app", Acquisition: "lcb"})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatal("second request missed the cache")
	}
	if r2.Proposer != "suggest/lcb" {
		t.Fatalf("Proposer = %q", r2.Proposer)
	}
	st := s.Stats()
	if st.Requests != 2 || st.CacheHits != 1 || st.CacheMisses != 1 || st.FullFits != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if calls := src.calls.Load(); calls != 1 {
		t.Fatalf("History called %d times, want 1", calls)
	}

	if _, err := s.Suggest(ctx, Request{Problem: "app", Acquisition: "nope"}); err == nil {
		t.Fatal("unknown acquisition accepted")
	}
	if _, err := s.Suggest(ctx, Request{}); err == nil {
		t.Fatal("empty problem accepted")
	}
}

func TestSuggestSingleFlight(t *testing.T) {
	forEachKind(t, func(t *testing.T, k servedKind) {
		src := newFakeSource()
		seedHistory(src, "app", 8)
		gate := make(chan struct{})
		src.gate = gate
		s, _ := newKindService(src, Config{Seed: 1})

		const clients = 16
		var wg sync.WaitGroup
		errs := make([]error, clients)
		resps := make([]*Response, clients)
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resps[i], errs[i] = s.Suggest(context.Background(), Request{Problem: "app", Surrogate: k.name})
			}(i)
		}
		// All clients are now blocked on the same cold-entry flight; release
		// the source and let them drain.
		time.Sleep(50 * time.Millisecond)
		close(gate)
		wg.Wait()
		for i := range errs {
			if errs[i] != nil {
				t.Fatalf("client %d: %v", i, errs[i])
			}
			if resps[i].ModelSamples != 8 {
				t.Fatalf("client %d: ModelSamples = %d, want 8", i, resps[i].ModelSamples)
			}
		}
		if calls := src.calls.Load(); calls != 1 {
			t.Fatalf("History called %d times for one history version, want 1 (single-flight)", calls)
		}
		if st := s.Stats(); st.FullFits != 1 {
			t.Fatalf("FullFits = %d, want 1", st.FullFits)
		}
	})
}

// TestSuggestIncrementalThenPeriodicRefit pins the sync rule: a model
// that offers a copy observes new rows on it until the refitEvery
// budget is spent, any other is rebuilt on every sync — and either way
// a request at the maxStale bound waits for the sync.
func TestSuggestIncrementalThenPeriodicRefit(t *testing.T) {
	forEachKind(t, func(t *testing.T, k servedKind) {
		src := newFakeSource()
		seedHistory(src, "app", 6)
		// maxStale=1 makes every post-upload request block on a sync, so the
		// fit kinds are deterministic.
		s, _ := newKindService(src, Config{Seed: 1})
		s.refitEvery, s.maxStale, s.liarTTL = 3, 1, 4
		ctx := context.Background()

		if _, err := s.Suggest(ctx, Request{Problem: "app", Surrogate: k.name}); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.FullFits != 1 || st.IncrementalObserves != 0 {
			t.Fatalf("after cold fit: %+v", st)
		}

		wantIncr := []int64{0, 0, 0}
		wantFull := []int64{2, 3, 4}
		if k.clones {
			wantIncr = []int64{1, 2, 2} // third upload crosses refitEvery=3 → full refit
			wantFull = []int64{1, 1, 2}
		}
		for i := 0; i < 3; i++ {
			x := []float64{0.15 + 0.1*float64(i), 0.85 - 0.1*float64(i)}
			src.add("app", x, math.Sin(3*x[0])+x[1]*x[1])
			s.NotifyAppend("app", 1)
			r, err := s.Suggest(ctx, Request{Problem: "app", Surrogate: k.name})
			if err != nil {
				t.Fatalf("round %d: %v", i, err)
			}
			if want := uint64(7 + i); r.ModelVersion != want {
				t.Fatalf("round %d: ModelVersion = %d, want %d (no stale serving under maxStale=1)", i, r.ModelVersion, want)
			}
			if r.ModelSamples != 7+i {
				t.Fatalf("round %d: ModelSamples = %d, want %d", i, r.ModelSamples, 7+i)
			}
			st := s.Stats()
			if st.IncrementalObserves != wantIncr[i] || st.FullFits != wantFull[i] {
				t.Fatalf("round %d: incr=%d full=%d, want %d/%d", i, st.IncrementalObserves, st.FullFits, wantIncr[i], wantFull[i])
			}
		}
		if st := s.Stats(); st.StaleWaits != 3 {
			t.Fatalf("StaleWaits = %d, want 3", st.StaleWaits)
		}
	})
}

// TestSuggestDriftAndFailedObserveForceFullFit: inside the refit budget
// two things still rebuild the model — a new target more than 6σ from
// the targets of the last full fit, and an Observe that fails.
func TestSuggestDriftAndFailedObserveForceFullFit(t *testing.T) {
	for _, tc := range []struct {
		name, kind string
		y          float64
		failObs    bool
	}{
		{name: "drift", kind: "gp", y: 1e3},
		{name: "drift", kind: "stub-clone", y: 1e3},
		{name: "observe fails", kind: "stub-clone", y: 1, failObs: true},
	} {
		t.Run(tc.name+"/"+tc.kind, func(t *testing.T) {
			src := newFakeSource()
			seedHistory(src, "app", 10)
			s, ctl := newKindService(src, Config{Seed: 1})
			s.maxStale, s.liarTTL = 1, 4
			ctx := context.Background()
			if _, err := s.Suggest(ctx, Request{Problem: "app", Surrogate: tc.kind}); err != nil {
				t.Fatal(err)
			}
			ctl.failObserve.Store(tc.failObs)
			src.add("app", []float64{0.31, 0.77}, tc.y)
			s.NotifyAppend("app", 1)
			r, err := s.Suggest(ctx, Request{Problem: "app", Surrogate: tc.kind})
			if err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.FullFits != 2 || st.IncrementalObserves != 0 || r.ModelSamples != 11 {
				t.Fatalf("full=%d incr=%d samples=%d, want a second full fit over 11 samples and no incremental update",
					st.FullFits, st.IncrementalObserves, r.ModelSamples)
			}
		})
	}
}

func TestSuggestServeWhileStale(t *testing.T) {
	src := newFakeSource()
	seedHistory(src, "app", 6)
	s := New(src, Config{Seed: 1})
	s.refitEvery, s.maxStale, s.liarTTL = 8, 5, 20
	ctx := context.Background()
	if _, err := s.Suggest(ctx, Request{Problem: "app"}); err != nil {
		t.Fatal(err)
	}
	// One upload: below maxStale, so the next request must serve the
	// cached (now one-behind) model immediately as a hit and refresh in
	// the background.
	src.add("app", []float64{0.9, 0.9}, 1.5)
	s.NotifyAppend("app", 1)
	r, err := s.Suggest(ctx, Request{Problem: "app"})
	if err != nil {
		t.Fatal(err)
	}
	if !r.CacheHit {
		t.Fatal("request under the staleness bound blocked")
	}
	// The background flight eventually absorbs the upload.
	deadline := time.After(5 * time.Second)
	for {
		r, err = s.Suggest(ctx, Request{Problem: "app"})
		if err != nil {
			t.Fatal(err)
		}
		if r.ModelVersion == 7 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("background refresh never landed; version stuck at %d", r.ModelVersion)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestSuggestLRUEviction(t *testing.T) {
	src := newFakeSource()
	for i := 0; i < 3; i++ {
		seedHistory(src, fmt.Sprintf("app%d", i), 5)
	}
	s := New(src, Config{Seed: 1})
	s.cacheSize = 2
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := s.Suggest(ctx, Request{Problem: fmt.Sprintf("app%d", i)}); err != nil {
			t.Fatalf("app%d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("entries=%d evictions=%d, want 2/1", st.Entries, st.Evictions)
	}
	// app0 was evicted; touching it again refits.
	if _, err := s.Suggest(ctx, Request{Problem: "app0"}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.FullFits != 4 {
		t.Fatalf("FullFits = %d after re-fit of evicted entry, want 4", st.FullFits)
	}
}

func TestSuggestColdStartSpaceFill(t *testing.T) {
	src := newFakeSource()
	src.add("app", []float64{0.5, 0.5}, 1.0) // one sample: below the 2-sample floor
	s := New(src, Config{Seed: 1})
	r, err := s.Suggest(context.Background(), Request{Problem: "app"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Proposer != "suggest/space-fill" || r.ModelSamples != 0 {
		t.Fatalf("cold start served %+v", r)
	}
	if len(r.ParamU) != 2 {
		t.Fatalf("malformed space-fill point %v", r.ParamU)
	}
	// The space-fill proposal must dodge the already-evaluated point.
	if math.Abs(r.ParamU[0]-0.5) < 1e-9 && math.Abs(r.ParamU[1]-0.5) < 1e-9 {
		t.Fatal("space-fill proposed an already-evaluated point")
	}
}

func TestSuggestSourceErrorPropagates(t *testing.T) {
	src := newFakeSource()
	src.err = ErrUnknownProblem
	s := New(src, Config{Seed: 1})
	_, err := s.Suggest(context.Background(), Request{Problem: "ghost"})
	if err == nil {
		t.Fatal("source error swallowed")
	}
	if err != ErrUnknownProblem {
		t.Fatalf("err = %v, want ErrUnknownProblem", err)
	}
	// Recovery: once the problem exists, the same entry serves.
	src.mu.Lock()
	src.err = nil
	src.mu.Unlock()
	seedHistory(src, "ghost", 4)
	s.NotifyAppend("ghost", 4)
	r, err := s.Suggest(context.Background(), Request{Problem: "ghost"})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if r.ModelSamples != 4 {
		t.Fatalf("ModelSamples = %d after recovery, want 4", r.ModelSamples)
	}
}

func TestSuggestContextCancelledWhileWaiting(t *testing.T) {
	src := newFakeSource()
	seedHistory(src, "app", 5)
	gate := make(chan struct{})
	src.gate = gate
	s := New(src, Config{Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if _, err := s.Suggest(ctx, Request{Problem: "app"}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(gate)
}

func TestTaskKeyCanonicalization(t *testing.T) {
	a := TaskKey(map[string]interface{}{"m": 100, "n": 200})
	b := TaskKey(map[string]interface{}{"n": 200, "m": 100})
	if a != b {
		t.Fatalf("key order-sensitive: %q vs %q", a, b)
	}
	if TaskKey(nil) != TaskKey(map[string]interface{}{}) {
		t.Fatal("nil and empty tasks keyed differently")
	}
	if TaskKey(nil) == a {
		t.Fatal("empty task collides with non-empty task")
	}
}
