package gptunecrowd

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gptunecrowd/internal/surrogate"
)

// TestTuneSurrogateOption covers the TuneOptions.Surrogate routing:
// every kind runs, "auto" reports the pool, and setting both Algorithm
// and Surrogate is rejected.
func TestTuneSurrogateOption(t *testing.T) {
	X, Y := collectDemo(t, 0.8, 40, 11)
	sources := []*SourceTask{NewSource("t=0.8", X, Y)}
	for _, kind := range []string{"auto", "gp", "copula", "sgp", "lcm"} {
		res, err := Tune(demoProblem(), map[string]interface{}{"t": 1.0}, TuneOptions{
			Budget:    6,
			Seed:      5,
			Surrogate: kind,
			Sources:   sources,
		})
		if err != nil {
			t.Fatalf("surrogate %q: %v", kind, err)
		}
		if want := "Surrogate(" + kind + ")"; res.Algorithm != want {
			t.Fatalf("surrogate %q reported algorithm %q, want %q", kind, res.Algorithm, want)
		}
		if res.History.Len() != 6 {
			t.Fatalf("surrogate %q: history %d, want 6", kind, res.History.Len())
		}
	}
}

func TestTuneSurrogateConflictsAndValidation(t *testing.T) {
	task := map[string]interface{}{"t": 1.0}
	_, err := Tune(demoProblem(), task, TuneOptions{Budget: 4, Algorithm: "NoTLA", Surrogate: "gp"})
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("Algorithm+Surrogate: %v", err)
	}
	if _, err := Tune(demoProblem(), task, TuneOptions{Budget: 4, Surrogate: "bogus"}); err == nil {
		t.Fatal("unknown surrogate accepted")
	}
	if _, err := Tune(demoProblem(), task, TuneOptions{Budget: 4, Surrogate: "lcm"}); err == nil {
		t.Fatal("lcm without sources accepted")
	}
}

// TestTuneSurrogateCheckpointResume checks that checkpoint → resume is
// bit-identical to an uninterrupted run for every Table-I algorithm and
// every surrogate kind at every split point. The sources hold more
// samples than MaxSourceSamples, so the LCM-based tuners subsample them
// — hidden proposer state the checkpoint has to carry.
func TestTuneSurrogateCheckpointResume(t *testing.T) {
	task := map[string]interface{}{"t": 1.0}
	X, Y := collectDemo(t, 0.8, 30, 5)
	X2, Y2 := collectDemo(t, 1.2, 30, 6)
	sources := []*SourceTask{NewSource("t=0.8", X, Y), NewSource("t=1.2", X2, Y2)}

	for _, opts := range everyTuner(sources) {
		opts.Budget = 7
		if opts.Surrogate == "auto" {
			// The pool tries each of its five arms once after a three-sample
			// warm-up; the budget leaves room for the lcm arm to be refitted.
			opts.Budget = 14
		}
		opts.Seed = 7
		opts.MaxSourceSamples = 12
		t.Run(opts.Algorithm+opts.Surrogate, func(t *testing.T) {
			t.Parallel()
			full, err := Tune(demoProblem(), task, opts)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewTuningSession(demoProblem(), task, opts)
			if err != nil {
				t.Fatal(err)
			}
			for split := 1; split < opts.Budget; split++ {
				if err := s.StepContext(context.Background()); err != nil {
					t.Fatal(err)
				}
				cp, err := s.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				resumed, err := ResumeTuningSession(demoProblem(), task, opts, cp)
				if err != nil {
					t.Fatalf("split %d: %v", split, err)
				}
				res, err := resumed.RunContext(context.Background())
				if err != nil {
					t.Fatalf("split %d: %v", split, err)
				}
				assertSameHistory(t, fmt.Sprintf("resumed at %d", split), full.History, res.History)
			}
		})
	}
}

// everyTuner spells every row of the tuner table as TuneOptions: the
// Algorithms() names, then the surrogate kinds; all but NoTLA are given
// the sources.
func everyTuner(sources []*SourceTask) []TuneOptions {
	cases := []TuneOptions{}
	for _, alg := range Algorithms() {
		cases = append(cases, TuneOptions{Algorithm: alg, Sources: sources})
	}
	cases[0].Sources = nil // NoTLA
	for _, kind := range surrogate.Kinds() {
		cases = append(cases, TuneOptions{Surrogate: kind, Sources: sources})
	}
	return cases
}

// assertSameHistory fails unless got repeats want bit for bit.
func assertSameHistory(t *testing.T, label string, want, got *History) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: history %d, want %d", label, got.Len(), want.Len())
	}
	for i, a := range want.Samples {
		b := got.Samples[i]
		if a.Y != b.Y || a.Failed != b.Failed || !reflect.DeepEqual(a.ParamU, b.ParamU) {
			t.Fatalf("%s: sample %d is %v → %v, want %v → %v", label, i, b.ParamU, b.Y, a.ParamU, a.Y)
		}
	}
}
