package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"gptunecrowd/internal/gp"
)

// robustHistory builds a history from (y, failed) pairs with trivial
// one-dimensional inputs; robust ingestion only looks at the targets.
func robustHistory(points ...struct {
	y      float64
	failed bool
}) *History {
	h := &History{}
	for i, p := range points {
		s := Sample{ParamU: []float64{float64(i) / float64(len(points))}}
		if p.failed {
			s.Failed = true
			s.Err = "boom"
		} else {
			s.Y = p.y
		}
		h.Append(s)
	}
	return h
}

func pt(y float64) struct {
	y      float64
	failed bool
} {
	return struct {
		y      float64
		failed bool
	}{y: y}
}

func failedPt() struct {
	y      float64
	failed bool
} {
	return struct {
		y      float64
		failed bool
	}{failed: true}
}

func TestRobustXYExcludesMADOutliers(t *testing.T) {
	// Nine well-behaved values around 1.0 plus one adversarial 1e6. The
	// MAD of the cluster is small, so the fabricated value is excluded.
	pts := []struct {
		y      float64
		failed bool
	}{pt(0.9), pt(1.0), pt(1.1), pt(0.95), pt(1.05), pt(1.2), pt(0.8), pt(1.0), pt(1.02), pt(1e6)}
	h := robustHistory(pts...)
	X, Y, info := h.RobustXY()
	if info.OK != 9 || info.Outliers != 1 || info.Imputed != 0 || info.NonFinite != 0 {
		t.Fatalf("info %+v, want 9 kept / 1 outlier", info)
	}
	if len(X) != 9 || len(Y) != 9 {
		t.Fatalf("got %d/%d rows, want 9", len(X), len(Y))
	}
	for _, y := range Y {
		if y > 100 {
			t.Fatalf("adversarial value %v survived the MAD filter", y)
		}
	}
}

func TestRobustXYKeepsBadButRealValues(t *testing.T) {
	// A genuinely bad configuration a few sigma out must survive: the
	// default threshold (6 robust sigma) is for orders of magnitude, not
	// for ordinary spread.
	pts := []struct {
		y      float64
		failed bool
	}{pt(1.0), pt(1.2), pt(0.8), pt(1.1), pt(0.9), pt(2.0)}
	h := robustHistory(pts...)
	_, Y, info := h.RobustXY()
	if info.Outliers != 0 {
		t.Fatalf("excluded %d samples from an ordinary spread", info.Outliers)
	}
	found := false
	for _, y := range Y {
		if y == 2.0 {
			found = true
		}
	}
	if !found {
		t.Fatal("bad-but-real value 2.0 was dropped")
	}
}

func TestRobustXYImputesFailuresAtPenalty(t *testing.T) {
	pts := []struct {
		y      float64
		failed bool
	}{pt(1.0), pt(3.0), pt(2.0), failedPt(), failedPt()}
	h := robustHistory(pts...)
	X, Y, info := h.RobustXY()
	if info.OK != 3 || info.Imputed != 2 {
		t.Fatalf("info %+v, want 3 kept / 2 imputed", info)
	}
	if len(X) != 5 || len(Y) != 5 {
		t.Fatalf("got %d rows, want 5 (failures must stay in the fit)", len(Y))
	}
	// Default penalty: worst kept (3.0) + 1.5 · spread (2.0) = 6.0.
	for i := 3; i < 5; i++ {
		if Y[i] != 6.0 {
			t.Fatalf("imputed value %v, want 6.0", Y[i])
		}
	}
}

func TestRobustXYDropsNonFinite(t *testing.T) {
	// Non-finite "successes" are defense in depth: Observe converts them
	// to failures, but histories can be assembled programmatically.
	pts := []struct {
		y      float64
		failed bool
	}{pt(1.0), pt(math.NaN()), pt(math.Inf(1)), pt(2.0)}
	h := robustHistory(pts...)
	_, Y, info := h.RobustXY()
	if info.OK != 2 || info.NonFinite != 2 {
		t.Fatalf("info %+v, want 2 kept / 2 non-finite", info)
	}
	for _, y := range Y {
		if math.IsNaN(y) || math.IsInf(y, 0) {
			t.Fatalf("non-finite %v reached the fit view", y)
		}
	}
}

func TestRobustXYNoSuccessfulSamples(t *testing.T) {
	h := robustHistory(failedPt(), failedPt())
	X, Y, info := h.RobustXY()
	if X != nil || Y != nil {
		t.Fatalf("expected empty view with no baseline, got %d rows", len(Y))
	}
	if info.OK != 0 || info.Imputed != 0 {
		t.Fatalf("info %+v, want all-zero besides nothing kept", info)
	}
}

func TestRobustXYConstantObjective(t *testing.T) {
	// Zero MAD must not divide by zero or exclude everything; the
	// penalty falls back to a spread floor.
	pts := []struct {
		y      float64
		failed bool
	}{pt(5.0), pt(5.0), pt(5.0), failedPt()}
	h := robustHistory(pts...)
	_, Y, info := h.RobustXY()
	if info.OK != 3 || info.Outliers != 0 || info.Imputed != 1 {
		t.Fatalf("info %+v, want 3 kept / 1 imputed", info)
	}
	pen := Y[len(Y)-1]
	if !(pen > 5.0) || math.IsInf(pen, 0) {
		t.Fatalf("penalty %v must sit above the constant objective", pen)
	}
}

func TestGPTunerDegradesOnFitFailure(t *testing.T) {
	// A proposer whose surrogate fit always fails must not kill the
	// session: every modeling iteration degrades to space-filling
	// sampling, counted and logged.
	const budget = 8
	p := quadProblem(t)
	tuner := NewGPTuner()
	tuner.fitFn = func(X [][]float64, Y []float64, opts gp.Options) (*gp.GP, error) {
		return nil, errors.New("injected fit failure")
	}
	var logs []string
	sess, err := NewSession(p, nil, tuner, SessionOptions{
		Budget: budget,
		Seed:   7,
		Logf: func(format string, args ...interface{}) {
			logs = append(logs, fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sess.Run()
	if err != nil {
		t.Fatalf("session died on fit failure: %v", err)
	}
	if h.Len() != budget {
		t.Fatalf("consumed %d of %d budget", h.Len(), budget)
	}
	st := sess.Stats()
	// The first MinSamples iterations are warm-up randoms (no fit); the
	// rest all fail and degrade.
	want := int64(budget - tuner.MinSamples)
	if st.FitFailures != want || st.SpaceFill != want {
		t.Fatalf("stats %+v, want %d fit failures / space fills", st, want)
	}
	matched := 0
	for _, l := range logs {
		if strings.Contains(l, "degrading to space-filling sampling") && strings.Contains(l, "injected fit failure") {
			matched++
		}
	}
	if int64(matched) != want {
		t.Fatalf("logged %d degradation lines, want %d: %q", matched, want, logs)
	}
	if _, ok := h.Best(); !ok {
		t.Fatal("degraded run found no best at all")
	}
}

func TestGPTunerRecoversAfterTransientFitFailure(t *testing.T) {
	// The fit fails only once mid-run; the session must go back to the
	// real surrogate afterwards.
	const budget = 8
	p := quadProblem(t)
	tuner := NewGPTuner()
	calls := 0
	tuner.fitFn = func(X [][]float64, Y []float64, opts gp.Options) (*gp.GP, error) {
		calls++
		if calls == 1 {
			return nil, errors.New("transient failure")
		}
		return gp.Fit(X, Y, opts)
	}
	sess, err := NewSession(p, nil, tuner, SessionOptions{Budget: budget, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.FitFailures != 1 || st.SpaceFill != 1 {
		t.Fatalf("stats %+v, want exactly one degradation", st)
	}
	if calls < 2 {
		t.Fatalf("fit called %d times; the session never recovered to modeling", calls)
	}
}

func TestSessionStatsTrackRobustIngestion(t *testing.T) {
	// An evaluator that fails on demand: the session's stats must report
	// the imputations of the latest fit.
	p := quadProblem(t)
	fail := false
	inner := p.Evaluator
	p.Evaluator = EvaluatorFunc(func(task, params map[string]interface{}) (float64, error) {
		if fail {
			return 0, errors.New("injected eval failure")
		}
		return inner.Evaluate(task, params)
	})
	sess, err := NewSession(p, nil, NewGPTuner(), SessionOptions{Budget: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		fail = i == 2 // one failure after warm-up
		if err := sess.Step(); err != nil {
			t.Fatal(err)
		}
	}
	st := sess.Stats()
	if st.LastImputed != 1 {
		t.Fatalf("stats %+v, want the failed evaluation imputed into the last fit", st)
	}
	if st.FitFailures != 0 {
		t.Fatalf("stats %+v: imputation must not require degradation", st)
	}
}
