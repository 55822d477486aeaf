package tla_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"gptunecrowd/internal/core"
	"gptunecrowd/internal/gp"
	"gptunecrowd/internal/lcm"
	"gptunecrowd/internal/tla"
)

// failFits makes the first n LCM fits and the first n per-round target
// GP fits fail (n < 0: all of them) and returns the restore.
func failFits(n int) (restore func()) {
	fails := func(calls *int) bool {
		*calls++
		return n < 0 || *calls <= n
	}
	var lcmCalls, targetCalls int
	return tla.SwapFits(func(real tla.LCMFitFunc) tla.LCMFitFunc {
		return func(X [][][]float64, Y [][]float64, opts lcm.Options) (*lcm.Model, error) {
			if fails(&lcmCalls) {
				return nil, errors.New("injected fit failure")
			}
			return real(X, Y, opts)
		}
	}, func(real tla.TargetFitFunc) tla.TargetFitFunc {
		return func(X [][]float64, Y []float64, opts gp.Options) (*gp.GP, error) {
			if fails(&targetCalls) {
				return nil, errors.New("injected fit failure")
			}
			return real(X, Y, opts)
		}
	})
}

// degradedRun drives a tuner through a whole session and returns its
// robustness counters and log lines; the run must complete.
func degradedRun(t *testing.T, name string, budget int, seed int64) (core.RobustStats, []string) {
	t.Helper()
	p, task, sources := demoSetup(t, 20, 5)
	var logs []string
	sess, err := core.NewSession(p, task, tuner(t, name, sources), core.SessionOptions{
		Budget: budget,
		Seed:   seed,
		Search: core.SearchOptions{Candidates: 64, DEGens: 5},
		Logf: func(format string, args ...interface{}) {
			logs = append(logs, fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := sess.RunContext(context.Background())
	if err != nil {
		t.Fatalf("session died on a fit failure: %v", err)
	}
	if h.Len() != budget || h.NumOK() == 0 {
		t.Fatalf("consumed %d of %d budget, %d evaluations succeeded", h.Len(), budget, h.NumOK())
	}
	return sess.Stats(), logs
}

// TestMultitaskDegradesOnLCMFitFailure drives every source-fed tuner
// through a session whose per-round fits — the LCM and the target GP of
// WeightedSum and Stacking — always fail: the run must complete, every
// failure counted and logged. The LCM tuners fall back to space-filling
// sampling; WeightedSum and Stacking keep a softer fallback, the
// source-only model, and the ensembles meet both.
func TestMultitaskDegradesOnLCMFitFailure(t *testing.T) {
	defer failFits(-1)()
	for _, name := range sourceFed() {
		t.Run(name, func(t *testing.T) {
			st, logs := degradedRun(t, name, 6, 9)
			if st.FitFailures == 0 {
				t.Fatalf("stats %+v: fit failures were not counted", st)
			}
			spaceFills := map[string]bool{"Multitask(PS)": true, "Multitask(TS)": true, "lcm": true}
			sourceOnly := map[string]bool{"WeightedSum(equal)": true, "WeightedSum(dynamic)": true, "Stacking": true}
			if (spaceFills[name] && st.SpaceFill != st.FitFailures) || (sourceOnly[name] && st.SpaceFill != 0) {
				t.Fatalf("stats %+v: wrong fallback for %s", st, name)
			}
			logged := 0
			for _, l := range logs {
				if strings.Contains(l, "injected fit failure") && strings.Contains(l, name) {
					logged++
				}
			}
			if int64(logged) != st.FitFailures {
				t.Fatalf("%d degradation log lines for %d failures: %q", logged, st.FitFailures, logs)
			}
		})
	}
}

// TestMultitaskRecoversAfterTransientLCMFailure fails only the first
// fit and checks the tuner resumes modeling instead of staying degraded.
func TestMultitaskRecoversAfterTransientLCMFailure(t *testing.T) {
	for _, name := range []string{"Multitask(TS)", "Multitask(PS)", "Stacking"} {
		restore := failFits(1)
		st, _ := degradedRun(t, name, 4, 13)
		restore()
		if st.FitFailures != 1 {
			t.Fatalf("%s: stats %+v, want exactly one degradation", name, st)
		}
	}
}

// TestEnsemblePoolFallbackOnError: a pool member whose every fit fails
// must not end the run — the others keep proposing.
func TestEnsemblePoolFallbackOnError(t *testing.T) {
	restore := tla.SwapFits(func(tla.LCMFitFunc) tla.LCMFitFunc {
		return func([][][]float64, [][]float64, lcm.Options) (*lcm.Model, error) {
			return nil, errors.New("deliberate failure")
		}
	}, nil)
	defer restore()
	st, _ := degradedRun(t, "Ensemble(toggling)", 7, 26)
	if st.FitFailures != 2 || st.SpaceFill != 2 {
		t.Fatalf("stats %+v, want the LCM member's two turns degraded and nothing else", st)
	}
}
