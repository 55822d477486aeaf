package surrogate

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gptunecrowd/internal/apps"
	"gptunecrowd/internal/core"
	"gptunecrowd/internal/gp"
)

// referenceNoTLA is the NoTLA tuner as it was written before it became
// a row of the tuner table — its own propose step over gp.Fit and
// core.SearchNext — so the row can be compared with it bit for bit. It
// is a reference, not a golden file: the digits may differ between
// platforms, the equality may not. (The fit no longer takes the
// session context; a fit that is not cancelled never read it.)
type referenceNoTLA struct {
	Acquisition core.Acquisition
	MinSamples  int

	// fitFn substitutes the GP fit (nil = gp.Fit).
	fitFn func(X [][]float64, Y []float64, opts gp.Options) (*gp.GP, error)
}

func newReferenceNoTLA() *referenceNoTLA {
	return &referenceNoTLA{Acquisition: core.EI{}, MinSamples: 2}
}

func (t *referenceNoTLA) Name() string { return "NoTLA" }

func (t *referenceNoTLA) Propose(ctx *core.ProposeContext) ([]float64, error) {
	if err := ctx.Cancelled(); err != nil {
		return nil, err
	}
	minSamples := t.MinSamples
	if minSamples < 2 {
		minSamples = 2
	}
	X, Y, info := ctx.History.RobustXY()
	ctx.NoteRobustIngestion(info)
	if info.OK < minSamples {
		return ctx.RandomFeasible(), nil
	}
	fit := t.fitFn
	if fit == nil {
		fit = gp.Fit
	}
	fitStart := time.Now()
	model, err := fit(X, Y, gp.Options{
		Categorical: ctx.Problem.CategoricalMask(),
		Seed:        ctx.Rng.Int63(),
	})
	ctx.Timers.ObserveFit(time.Since(fitStart))
	if cerr := ctx.Cancelled(); cerr != nil {
		return nil, cerr
	}
	if err != nil {
		return ctx.DegradeToSpaceFill(t.Name(), err), nil
	}
	acq := t.Acquisition
	if acq == nil {
		acq = core.EI{}
	}
	searchStart := time.Now()
	u := core.SearchNext(model, ctx.Problem.ParamSpace, acq, ctx.History, ctx.Rng, ctx.Search)
	ctx.Timers.ObserveSearch(time.Since(searchStart))
	return u, nil
}

// failingGP is the exact-GP arm with its fit failing whenever fail says
// so.
type failingGP struct {
	*GPSurrogate
	fail func() bool
}

func (f *failingGP) Fit(X [][]float64, Y []float64) error {
	if f.fail() {
		return errors.New("injected fit failure")
	}
	return f.GPSurrogate.Fit(X, Y)
}

// failingNoTLA builds the NoTLA row for p with its one arm replaced by
// a failingGP.
func failingNoTLA(t *testing.T, p *core.Problem, fail func() bool) *Pool {
	t.Helper()
	pool := mustProposer(t, "NoTLA", nil).(*Pool)
	if err := pool.ensureBuilt(&core.ProposeContext{Problem: p}); err != nil {
		t.Fatal(err)
	}
	pool.arms[0] = &failingGP{GPSurrogate: pool.arms[0].(*GPSurrogate), fail: fail}
	return pool
}

// runSession runs prop to the end of opts.Budget and returns the
// history with the session's robustness counters.
func runSession(t *testing.T, p *core.Problem, task map[string]interface{}, prop core.Proposer, opts core.SessionOptions) (*core.History, core.RobustStats) {
	t.Helper()
	s, err := core.NewSession(p, task, prop, opts)
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.RunContext(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", prop.Name(), err)
	}
	return h, s.Stats()
}

// identicalHistory requires every sample to match: point, objective
// and failure.
func identicalHistory(t *testing.T, want, got *core.History) {
	t.Helper()
	sameHistory(t, "NoTLA row vs reference", want, got)
	for i, a := range want.Samples {
		if b := got.Samples[i]; a.Failed != b.Failed || a.Proposer != b.Proposer {
			t.Fatalf("sample %d: failed %v by %q, want failed %v by %q", i, b.Failed, b.Proposer, a.Failed, a.Proposer)
		}
	}
}

var referenceSearch = core.SearchOptions{Candidates: 64, DEGens: 10}

// TestNoTLAMatchesReference: the NoTLA row proposes exactly what the
// reference does on the demo function, PDGEQRF and hypre (whose space
// has a categorical parameter), at three seeds each.
func TestNoTLAMatchesReference(t *testing.T) {
	for _, app := range []string{"demo", "pdgeqrf", "hypre"} {
		inst, err := apps.Build(app, apps.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if app == "hypre" && inst.Problem.CategoricalMask() == nil {
			t.Fatal("hypre reports no categorical parameter")
		}
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", app, seed), func(t *testing.T) {
				t.Parallel()
				opts := core.SessionOptions{Budget: 8, Seed: seed, Search: referenceSearch}
				want, _ := runSession(t, inst.Problem, inst.DefaultTask, newReferenceNoTLA(), opts)
				got, _ := runSession(t, inst.Problem, inst.DefaultTask, mustProposer(t, "NoTLA", nil), opts)
				identicalHistory(t, want, got)
			})
		}
	}
}

// TestNoTLAAcquisitionMatchesReference: PoolConfig.Acquisition scores
// the arm's search as the reference's Acquisition did.
func TestNoTLAAcquisitionMatchesReference(t *testing.T) {
	p, task, _ := demoSetup(t, 1, 1)
	opts := core.SessionOptions{Budget: 6, Seed: 4, Search: referenceSearch}
	for _, acq := range []core.Acquisition{core.LCB{}, core.PI{}} {
		ref := newReferenceNoTLA()
		ref.Acquisition = acq
		want, _ := runSession(t, p, task, ref, opts)
		prop, err := NewProposer("NoTLA", PoolConfig{Acquisition: acq})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := runSession(t, p, task, prop, opts)
		identicalHistory(t, want, got)
	}
}

// TestNoTLAWarmupFailureMatchesReference: a failed evaluation inside
// the warm-up is imputed into the fit view but does not end the
// warm-up, in the row as in the reference.
func TestNoTLAWarmupFailureMatchesReference(t *testing.T) {
	run := func(prop core.Proposer) *core.History {
		p, task, _ := demoSetup(t, 1, 1)
		p.Evaluator = failFirst(p.Evaluator, 1)
		h, _ := runSession(t, p, task, prop, core.SessionOptions{Budget: 6, Seed: 2, Search: referenceSearch})
		return h
	}
	want := run(newReferenceNoTLA())
	if !want.Samples[0].Failed || want.NumOK() != 5 {
		t.Fatalf("script wants one failure first, got %d successes", want.NumOK())
	}
	identicalHistory(t, want, run(mustProposer(t, "NoTLA", nil)))
}

// TestNoTLAFitFailureMatchesReference: when every fit fails, the row
// degrades exactly as the reference does — same points, same counts.
func TestNoTLAFitFailureMatchesReference(t *testing.T) {
	p, task, _ := demoSetup(t, 1, 1)
	opts := core.SessionOptions{Budget: 6, Seed: 5, Search: referenceSearch}
	ref := newReferenceNoTLA()
	ref.fitFn = func([][]float64, []float64, gp.Options) (*gp.GP, error) {
		return nil, errors.New("injected fit failure")
	}
	want, wantStats := runSession(t, p, task, ref, opts)
	got, gotStats := runSession(t, p, task, failingNoTLA(t, p, func() bool { return true }), opts)
	identicalHistory(t, want, got)
	if wantStats.SpaceFill != 4 || gotStats.SpaceFill != wantStats.SpaceFill || gotStats.FitFailures != wantStats.FitFailures {
		t.Fatalf("row stats %+v, reference %+v (want 4 space fills)", gotStats, wantStats)
	}
}

// failFirst wraps an evaluator so its first n calls fail.
func failFirst(inner core.Evaluator, n int) core.Evaluator {
	calls := 0
	return core.EvaluatorFunc(func(task, params map[string]interface{}) (float64, error) {
		if calls++; calls <= n {
			return 0, errors.New("injected eval failure")
		}
		return inner.Evaluate(task, params)
	})
}

// TestPoolDegradesOnFitFailure: a row whose fit always fails must not
// kill the session: every modeling iteration degrades to space-filling
// sampling, counted and logged.
func TestPoolDegradesOnFitFailure(t *testing.T) {
	const budget = 8
	p, task, _ := demoSetup(t, 1, 1)
	var logs []string
	sess, err := core.NewSession(p, task, failingNoTLA(t, p, func() bool { return true }), core.SessionOptions{
		Budget: budget,
		Seed:   7,
		Search: referenceSearch,
		Logf: func(format string, args ...interface{}) {
			logs = append(logs, fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sess.RunContext(context.Background())
	if err != nil {
		t.Fatalf("session died on fit failure: %v", err)
	}
	if h.Len() != budget {
		t.Fatalf("consumed %d of %d budget", h.Len(), budget)
	}
	// The first two iterations are warm-up draws (no fit); the rest all
	// fail and degrade.
	st := sess.Stats()
	const want = budget - 2
	if st.FitFailures != want || st.SpaceFill != want {
		t.Fatalf("stats %+v, want %d fit failures / space fills", st, want)
	}
	matched := 0
	for _, l := range logs {
		if strings.Contains(l, "degrading to space-filling sampling") && strings.Contains(l, "injected fit failure") {
			matched++
		}
	}
	if matched != want {
		t.Fatalf("logged %d degradation lines, want %d: %q", matched, want, logs)
	}
	if _, ok := h.Best(); !ok {
		t.Fatal("degraded run found no best at all")
	}
}

// TestPoolRecoversAfterTransientFitFailure: the fit fails only once
// mid-run; the row goes back to the real model afterwards.
func TestPoolRecoversAfterTransientFitFailure(t *testing.T) {
	p, task, _ := demoSetup(t, 1, 1)
	calls := 0
	pool := failingNoTLA(t, p, func() bool { calls++; return calls == 1 })
	_, st := runSession(t, p, task, pool, core.SessionOptions{Budget: 8, Seed: 11, Search: referenceSearch})
	if st.FitFailures != 1 || st.SpaceFill != 1 {
		t.Fatalf("stats %+v, want exactly one degradation", st)
	}
	if calls < 2 {
		t.Fatalf("fit called %d times; the session never recovered to modeling", calls)
	}
}

// TestWarmupCountsSuccessfulSamples: a row's warm-up waits for
// successful samples. After fail, fail, ok the gp row (warm-up 3) holds
// one, so its fourth proposal is still a random draw — not a fit on one
// real row and two imputed ones.
func TestWarmupCountsSuccessfulSamples(t *testing.T) {
	p, task, _ := demoSetup(t, 1, 1)
	p.Evaluator = failFirst(p.Evaluator, 2)
	pool := mustProposer(t, KindGP, nil).(*Pool)
	h, _ := runSession(t, p, task, pool, core.SessionOptions{Budget: 4, Seed: 3, Search: referenceSearch})
	if h.NumOK() != 2 {
		t.Fatalf("script wants fail, fail, ok, ok; got %d successes", h.NumOK())
	}
	if pulls := pool.SelectedCounts()[KindGP]; pulls != 0 {
		t.Fatalf("gp arm pulled %d times on one successful sample", pulls)
	}
}
