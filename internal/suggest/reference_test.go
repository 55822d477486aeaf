package suggest

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"gptunecrowd/internal/core"
	"gptunecrowd/internal/gp"
	"gptunecrowd/internal/space"
)

// reference is the default serving path written out against the GP
// directly — gp.Fit / Clone / Observe / core.SearchNext with the
// service's seeds, budgets and liar rules — so the service, which
// reaches the same model only through core.Surrogate, can be compared
// with it bit for bit. It is a reference, not a golden file: the digits
// may differ between platforms, the equality may not.
type reference struct {
	seed                int64
	refitEvery, liarTTL int
	sp                  *space.Space
	mask                []bool

	model    *gp.GP
	n        int
	hist     *core.History
	liars    []liar
	gen, seq int64
}

// sync folds the source's rows past r.n in, the way Service.apply does.
func (r *reference) sync(t *testing.T, src *fakeSource, problem string) {
	t.Helper()
	var X [][]float64
	var Y []float64
	for _, row := range src.rows[problem] {
		X, Y = append(X, row.x), append(Y, row.y)
	}
	prev := r.n
	if len(X) > prev {
		// The refit budget and the drift reference are read off the GP
		// itself; the service has to keep the same numbers on its own.
		var next *gp.GP
		if r.model != nil && r.model.ObservedSinceFit()+len(X)-prev < r.refitEvery && !r.drifted(Y[prev:]) {
			next = r.model.Clone()
			for i := prev; i < len(X); i++ {
				if err := next.Observe(X[i], Y[i]); err != nil {
					next = nil
					break
				}
			}
		}
		if next == nil {
			var err error
			next, err = gp.Fit(X, Y, gp.Options{Seed: r.seed, Categorical: r.mask})
			if err != nil {
				t.Fatalf("reference fit: %v", err)
			}
		}
		r.model, r.n = next, len(X)
		// Each absorbed row retires the first liar it matches.
		for _, row := range X[prev:] {
			for i, l := range r.liars {
				if pointsClose(row, l.u, retireTol) {
					r.liars = append(r.liars[:i], r.liars[i+1:]...)
					break
				}
			}
		}
	}
	kept := r.liars[:0]
	for _, l := range r.liars {
		if uint64(r.gen)-l.born <= uint64(r.liarTTL) {
			kept = append(kept, l)
		}
	}
	r.liars = kept
	r.hist = &core.History{}
	for i := range X {
		r.hist.Append(core.Sample{ParamU: X[i], Y: Y[i]})
	}
}

func (r *reference) drifted(newY []float64) bool {
	mean, std := r.model.Standardization()
	for _, y := range newY {
		if math.Abs(y-mean)/std > driftSigma {
			return true
		}
	}
	return false
}

// propose returns the k points the service must serve next.
func (r *reference) propose(k int) [][]float64 {
	r.seq++
	rng := rand.New(rand.NewSource(r.seed ^ (0x9e3779b9 * r.seq)))
	opts := core.SearchOptions{Candidates: candidates, DEGens: deGens}
	if k == 1 && len(r.liars) == 0 {
		return [][]float64{core.SearchNext(r.model, r.sp, core.EI{}, r.hist, rng, opts)}
	}
	work := r.model.Clone()
	scratch := &core.History{Samples: append([]core.Sample(nil), r.hist.Samples...)}
	for _, l := range r.liars {
		_ = work.Observe(l.u, l.y)
		scratch.Append(core.Sample{ParamU: l.u, Y: l.y})
	}
	best, _ := scratch.Best()
	var out [][]float64
	for j := 0; j < k; j++ {
		u := core.SearchNext(work, r.sp, core.EI{}, scratch, rng, opts)
		out = append(out, u)
		if j < k-1 {
			_ = work.Observe(u, best.Y)
		}
		scratch.Append(core.Sample{ParamU: u, Y: best.Y})
	}
	if k > 1 {
		for _, u := range out {
			r.liars = append(r.liars, liar{u: u, y: best.Y, born: uint64(r.gen)})
		}
	}
	return out
}

// newReference follows s's seed and limits.
func newReference(s *Service, sp *space.Space) *reference {
	return &reference{seed: s.cfg.Seed, refitEvery: s.refitEvery, liarTTL: s.liarTTL, sp: sp, mask: sp.CategoricalMask()}
}

// TestSuggestDefaultPathIdentity drives the default kind through a
// scripted mix of single and batched requests with uploads in between
// (full fits, incremental observes, liars recorded, retired and
// expired) and requires every served coordinate to equal the
// reference's.
func TestSuggestDefaultPathIdentity(t *testing.T) {
	src := newFakeSource()
	seedHistory(src, "app", 40)
	// maxStale 1: every request after an upload waits for its sync, so
	// the schedule of fits is the script's, not the scheduler's.
	s := New(src, Config{Seed: 5})
	s.maxStale, s.liarTTL = 1, 4
	ref := newReference(s, testSpace)
	ctx := context.Background()
	objective := func(u []float64) float64 { return math.Sin(3*u[0]) + u[1]*u[1] }

	var last []float64
	for i := 1; i <= 60; i++ {
		if i%2 == 0 {
			src.add("app", append([]float64(nil), last...), objective(last))
			s.NotifyAppend("app", 1)
			ref.gen++
		}
		k := 1
		if i%5 == 0 {
			k = 3
		}
		got, err := s.Suggest(ctx, Request{Problem: "app", Batch: k})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		ref.sync(t, src, "app")
		want := ref.propose(k)
		if len(got.Proposals) != len(want) {
			t.Fatalf("request %d: %d proposals, want %d", i, len(got.Proposals), len(want))
		}
		for j := range want {
			for d := range want[j] {
				if got.Proposals[j].ParamU[d] != want[j][d] {
					t.Fatalf("request %d proposal %d: served %v, reference %v", i, j, got.Proposals[j].ParamU, want[j])
				}
			}
		}
		// Report the last point of a batch back: it retires its liar and
		// leaves the other two to expire.
		last = want[len(want)-1]
	}
	st := s.Stats()
	if st.FullFits != 2 || st.IncrementalObserves != 29 {
		t.Fatalf("full fits %d, incremental observes %d; the script is sized for 2 and 29", st.FullFits, st.IncrementalObserves)
	}
	if st.LiarsRetired == 0 || st.LiarsExpired == 0 {
		t.Fatalf("script exercised neither retirement nor expiry: %+v", st)
	}
}

// TestSuggestCategoricalMaskReachesModel: on a space with a categorical
// parameter the served GP must measure Hamming distance on it, like
// every other fit in the repository — the proposal equals the one from
// a reference fitted with the mask.
func TestSuggestCategoricalMaskReachesModel(t *testing.T) {
	sp := space.MustNew(
		space.Param{Name: "relax", Kind: space.Categorical, Categories: []string{"jacobi", "gs", "sor", "cheby"}},
		space.Param{Name: "w", Kind: space.Real, Lo: 0, Hi: 1},
	)
	src := newFakeSource()
	src.space = sp
	// The categories are shifted copies of one curve, so how the kernel
	// measures distance between them changes the fit.
	for i := 0; i < 24; i++ {
		_, w := math.Modf(float64(i) * 0.618)
		u := sp.Canonicalize([]float64{(float64(i%4) + 0.5) / 4, w})
		shift := []float64{0, 0.3, 0.1, 0.2}[i%4]
		src.add("cat", u, 2*(w-0.3-shift)*(w-0.3-shift)+0.1*shift)
	}
	s := New(src, Config{Seed: 3})
	got, err := s.Suggest(context.Background(), Request{Problem: "cat"})
	if err != nil {
		t.Fatal(err)
	}
	ref := newReference(s, sp)
	if ref.mask == nil {
		t.Fatal("space reports no categorical dimension")
	}
	ref.sync(t, src, "cat")
	want := ref.propose(1)[0]
	for d := range want {
		if got.ParamU[d] != want[d] {
			t.Fatalf("served %v, reference fitted with the categorical mask proposes %v", got.ParamU, want)
		}
	}
}
