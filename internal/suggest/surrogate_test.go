package suggest

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"math"
	"sync/atomic"
	"testing"

	"gptunecrowd/internal/core"
	"gptunecrowd/internal/surrogate"
)

// stub is the smallest honest core.Surrogate: the mean of what it has
// seen, less certain the farther a point lies from all of it. Its
// counters and failure switches live in a stubCtl shared by every
// instance a service builds, so a test can see which rule ran.
type stub struct {
	ctl *stubCtl
	xs  [][]float64
	ys  []float64
}

type stubCtl struct {
	fits, clones, observes atomic.Int64
	failFit, failObserve   atomic.Bool
}

func (m *stub) Name() string       { return "stub" }
func (m *stub) Cost(n int) float64 { return float64(n) }

func (m *stub) Fit(X [][]float64, Y []float64) error {
	if m.ctl.failFit.Load() {
		return errors.New("stub: fit failed on demand")
	}
	m.ctl.fits.Add(1)
	m.xs, m.ys = append([][]float64(nil), X...), append([]float64(nil), Y...)
	return nil
}

func (m *stub) Observe(x []float64, y float64) error {
	if m.ctl.failObserve.Load() {
		return errors.New("stub: observe failed on demand")
	}
	m.ctl.observes.Add(1)
	m.xs, m.ys = append(m.xs, x), append(m.ys, y)
	return nil
}

func (m *stub) Predict(x []float64) (mean, std float64) {
	nearest := math.Inf(1)
	for i, p := range m.xs {
		var d2 float64
		for j := range p {
			d2 += (p[j] - x[j]) * (p[j] - x[j])
		}
		nearest = math.Min(nearest, d2)
		mean += m.ys[i] / float64(len(m.ys))
	}
	return mean, math.Sqrt(nearest)
}

func (m *stub) PredictBatchInto(X [][]float64, means, stds []float64, workers int) {
	for i, x := range X {
		means[i], stds[i] = m.Predict(x)
	}
}

// cloneStub is stub plus the one capability the serving rules look for.
type cloneStub struct{ stub }

func (m *cloneStub) Clone() core.Surrogate {
	m.ctl.clones.Add(1)
	return &cloneStub{stub{ctl: m.ctl, xs: m.xs[:len(m.xs):len(m.xs)], ys: m.ys[:len(m.ys):len(m.ys)]}}
}

// servedKind is one row of the serving contract: every behaviour the
// service promises is checked for each of these, and a row differs from
// another only in whether its model offers Clone.
type servedKind struct {
	name   string
	clones bool // syncs incrementally, copies itself for liars
}

var servedKinds = []servedKind{
	{"gp", true}, {"copula", false}, {"sgp", false}, {"stub", false}, {"stub-clone", true},
}

// newKindService is New plus the two stub kinds; ctl reports on them.
func newKindService(src Source, cfg Config) (s *Service, ctl *stubCtl) {
	s, ctl = New(src, cfg), &stubCtl{}
	s.newModel = func(kind string, c surrogate.Config) (core.Surrogate, error) {
		switch kind {
		case "stub":
			return &stub{ctl: ctl}, nil
		case "stub-clone":
			return &cloneStub{stub{ctl: ctl}}, nil
		}
		return surrogate.New(kind, c)
	}
	return s, ctl
}

// forEachKind runs the contract check once per served kind.
func forEachKind(t *testing.T, check func(t *testing.T, k servedKind)) {
	for _, k := range servedKinds {
		t.Run(k.name, func(t *testing.T) { check(t, k) })
	}
}

// TestSuggestSurrogateHint covers the optional "surrogate" request
// field: each servable kind gets its own cache entry and serves a valid
// proposal; unknown and unservable kinds fail with ErrBadRequest.
func TestSuggestSurrogateHint(t *testing.T) {
	src := newFakeSource()
	seedHistory(src, "app", 12)
	s := New(src, Config{Seed: 1})
	ctx := context.Background()

	for _, kind := range []string{"", "gp", "copula", "sgp"} {
		r, err := s.Suggest(ctx, Request{Problem: "app", Surrogate: kind})
		if err != nil {
			t.Fatalf("surrogate %q: %v", kind, err)
		}
		if len(r.ParamU) != 2 || r.ModelSamples != 12 {
			t.Fatalf("surrogate %q: malformed response %+v", kind, r)
		}
		for _, u := range r.ParamU {
			if u < 0 || u > 1 {
				t.Fatalf("surrogate %q: proposal %v outside unit cube", kind, r.ParamU)
			}
		}
	}
	// "" and "gp" share one entry; copula and sgp add one each.
	if st := s.Stats(); st.Entries != 3 {
		t.Fatalf("entries = %d, want 3 (gp shared + copula + sgp)", st.Entries)
	}

	for _, kind := range []string{"auto", "lcm", "bogus"} {
		_, err := s.Suggest(ctx, Request{Problem: "app", Surrogate: kind})
		if !errors.Is(err, ErrBadRequest) {
			t.Fatalf("surrogate %q: got %v, want ErrBadRequest", kind, err)
		}
	}
}

// TestSuggestSurrogateBatch pins the private-copy rule for liars by the
// capability the model offers: Clone when there is one, otherwise a new
// model fitted on the serving history, and when that fit fails the
// shared model searched read-only — still k distinct points.
func TestSuggestSurrogateBatch(t *testing.T) {
	for _, tc := range []struct {
		name, kind           string
		failFit              bool
		wantClones, wantFits int64 // beyond the serving model's own fit
	}{
		{name: "clone", kind: "stub-clone", wantClones: 1},
		{name: "refit", kind: "stub", wantFits: 1},
		{name: "read-only", kind: "stub", failFit: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := newFakeSource()
			seedHistory(src, "app", 12)
			var logs bytes.Buffer
			s, ctl := newKindService(src, Config{Seed: 2, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
			ctx := context.Background()
			if _, err := s.Suggest(ctx, Request{Problem: "app", Surrogate: tc.kind}); err != nil {
				t.Fatal(err)
			}
			ctl.failFit.Store(tc.failFit)
			fits, clones := ctl.fits.Load(), ctl.clones.Load()
			r, err := s.Suggest(ctx, Request{Problem: "app", Surrogate: tc.kind, Batch: 3})
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Proposals) != 3 {
				t.Fatalf("%d proposals, want 3", len(r.Proposals))
			}
			distinct(t, r.Proposals)
			if got := ctl.clones.Load() - clones; got != tc.wantClones {
				t.Fatalf("private copy took %d clones, want %d", got, tc.wantClones)
			}
			if got := ctl.fits.Load() - fits; got != tc.wantFits {
				t.Fatalf("private copy took %d fits, want %d", got, tc.wantFits)
			}
			// Two liar observations spread a batch of three; the shared
			// model must see none of them, least of all when it is all
			// there is to search.
			wantObserves := int64(2)
			if tc.failFit {
				wantObserves = 0
				if !bytes.Contains(logs.Bytes(), []byte("serving read-only")) {
					t.Fatal("read-only fallback not logged")
				}
			}
			if got := ctl.observes.Load(); got != wantObserves {
				t.Fatalf("%d liar observations, want %d", got, wantObserves)
			}
			if r2, err := s.Suggest(ctx, Request{Problem: "app", Surrogate: tc.kind}); err != nil || r2.ModelSamples != 12 {
				t.Fatalf("serving model disturbed by the batch: %+v, %v", r2, err)
			}
		})
	}
}

// TestSuggestSurrogateStaysFresh: uploads reach every kind's entry
// through NotifyAppend — observed one by one on a copy where the model
// offers one, by a rebuild where it does not.
func TestSuggestSurrogateStaysFresh(t *testing.T) {
	forEachKind(t, func(t *testing.T, k servedKind) {
		src := newFakeSource()
		seedHistory(src, "app", 12)
		s, _ := newKindService(src, Config{Seed: 3, MaxStale: 1})
		ctx := context.Background()

		if _, err := s.Suggest(ctx, Request{Problem: "app", Surrogate: k.name}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ { // 6 more rows land at once
			x := []float64{0.05 + 0.13*float64(i), 0.93 - 0.11*float64(i)}
			src.add("app", x, math.Sin(3*x[0])+x[1]*x[1])
		}
		s.NotifyAppend("app", 6)
		r, err := s.Suggest(ctx, Request{Problem: "app", Surrogate: k.name})
		if err != nil {
			t.Fatal(err)
		}
		if r.ModelSamples != 18 || r.ModelVersion != 18 {
			t.Fatalf("model did not absorb the uploads: %+v", r)
		}
		wantFull, wantIncr := int64(2), int64(0)
		if k.clones {
			wantFull, wantIncr = 1, 6
		}
		if st := s.Stats(); st.FullFits != wantFull || st.IncrementalObserves != wantIncr {
			t.Fatalf("full=%d incr=%d, want %d/%d", st.FullFits, st.IncrementalObserves, wantFull, wantIncr)
		}
	})
}
