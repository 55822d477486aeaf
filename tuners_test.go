package gptunecrowd

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
)

// stageCounts reads the *_count series of a registry's histograms.
func stageCounts(t *testing.T, m *Metrics) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	counts := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && strings.HasSuffix(fields[0], "_count") {
			v, _ := strconv.ParseFloat(fields[1], 64)
			counts[fields[0]] = v
		}
	}
	return counts
}

// TestEveryTunerTimesStagesAndHonoursCancel: one propose step runs
// every tuner, so every one reports its fit and search stages and stops
// at a cancelled context. Before the Table I tuners were rows of that
// step they moved only tuner_propose_seconds and ignored cancellation.
func TestEveryTunerTimesStagesAndHonoursCancel(t *testing.T) {
	task := map[string]interface{}{"t": 1.0}
	X, Y := collectDemo(t, 0.8, 30, 5)
	sources := []*SourceTask{NewSource("t=0.8", X, Y)}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opts := range everyTuner(sources) {
		name := opts.Algorithm + opts.Surrogate
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			opts.Budget, opts.Seed, opts.Metrics = 6, 1, NewMetrics()
			res, err := Tune(demoProblem(), task, opts)
			if err != nil {
				t.Fatal(err)
			}
			counts := stageCounts(t, opts.Metrics)
			if counts["tuner_fit_seconds_count"] < 1 || counts["tuner_search_seconds_count"] < 1 || counts["tuner_propose_seconds_count"] != 6 {
				t.Fatalf("fit/search/propose observed %v/%v/%v times over 6 evaluations",
					counts["tuner_fit_seconds_count"], counts["tuner_search_seconds_count"], counts["tuner_propose_seconds_count"])
			}
			if cfg, err := SuggestNextContext(cancelled, demoProblem(), res.History, name, opts.Sources, 1); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled context answered %v, %v", cfg, err)
			}
		})
	}
}

// TestSourceFedTunersIngestRobustly: every tuner reads the history
// through the robust filter — failed evaluations imputed at a penalty
// and reported — where WeightedSum and Stacking used to read the raw
// successes.
func TestSourceFedTunersIngestRobustly(t *testing.T) {
	task := map[string]interface{}{"t": 1.0}
	X, Y := collectDemo(t, 0.8, 30, 5)
	sources := []*SourceTask{NewSource("t=0.8", X, Y)}
	for _, opts := range everyTuner(sources) {
		t.Run(opts.Algorithm+opts.Surrogate, func(t *testing.T) {
			t.Parallel()
			p, calls := demoProblem(), 0
			inner := p.Evaluator
			p.Evaluator = EvaluatorFunc(func(task, params map[string]interface{}) (float64, error) {
				if calls++; calls == 2 {
					return 0, errors.New("node failure")
				}
				return inner.Evaluate(task, params)
			})
			opts.Budget, opts.Seed = 6, 2
			s, err := NewTuningSession(p, task, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.LastImputed != 1 {
				t.Fatalf("stats %+v: the failed evaluation was not imputed into the last fit", st)
			}
		})
	}
}
