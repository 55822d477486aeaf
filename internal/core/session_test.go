package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// sampleEqual compares two samples bit-exactly (float equality is
// intentional: resume must be bit-identical, not approximately equal).
func sampleEqual(a, b Sample) bool {
	if len(a.ParamU) != len(b.ParamU) {
		return false
	}
	for i := range a.ParamU {
		if a.ParamU[i] != b.ParamU[i] {
			return false
		}
	}
	return a.Y == b.Y && a.Failed == b.Failed && a.Err == b.Err &&
		a.Proposer == b.Proposer && reflect.DeepEqual(a.Params, b.Params)
}

func assertHistoriesIdentical(t *testing.T, want, got *History) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("history length %d vs %d", want.Len(), got.Len())
	}
	for i := range want.Samples {
		if !sampleEqual(want.Samples[i], got.Samples[i]) {
			t.Fatalf("sample %d differs:\nwant %+v\ngot  %+v", i, want.Samples[i], got.Samples[i])
		}
	}
}

func TestSessionMatchesItselfRunToRun(t *testing.T) {
	p := quadProblem(t)
	run := func() *History {
		s, err := NewSession(p, nil, NewGPTuner(), SessionOptions{Budget: 8, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		h, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	assertHistoriesIdentical(t, run(), run())
}

// TestSessionCheckpointResumeBitIdentical is the checkpoint round-trip
// wall: run for k evaluations, checkpoint, resume in a fresh session,
// and require the continued history to be bit-identical to an
// uninterrupted run — for every split point, both serial and with the
// parallel numeric engine fanned out to four workers.
func TestSessionCheckpointResumeBitIdentical(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		t.Setenv("GPTUNE_WORKERS", "1")
		checkpointResumeBitIdentical(t)
	})
	t.Run("workers=4", func(t *testing.T) {
		t.Setenv("GPTUNE_WORKERS", "4")
		checkpointResumeBitIdentical(t)
	})
}

func checkpointResumeBitIdentical(t *testing.T) {
	p := quadProblem(t)
	const budget = 8
	opts := SessionOptions{Budget: budget, Seed: 42}

	full, err := NewSession(p, nil, NewGPTuner(), opts)
	if err != nil {
		t.Fatal(err)
	}
	uninterrupted, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}

	for k := 0; k <= budget; k++ {
		t.Run(fmt.Sprintf("split=%d", k), func(t *testing.T) {
			s, err := NewSession(p, nil, NewGPTuner(), opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k; i++ {
				if err := s.Step(); err != nil {
					t.Fatal(err)
				}
			}
			cp, err := s.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			r, err := ResumeSession(p, nil, NewGPTuner(), opts, cp)
			if err != nil {
				t.Fatal(err)
			}
			if r.Iter() != k {
				t.Fatalf("resumed iter %d, want %d", r.Iter(), k)
			}
			h, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			assertHistoriesIdentical(t, uninterrupted, h)
		})
	}
}

func TestSessionCheckpointWithPendingProposal(t *testing.T) {
	// Suspending between Propose and Observe must resume with the same
	// outstanding point, and the final history must still match the
	// uninterrupted run.
	p := quadProblem(t)
	opts := SessionOptions{Budget: 6, Seed: 9}
	full, err := NewSession(p, nil, NewGPTuner(), opts)
	if err != nil {
		t.Fatal(err)
	}
	uninterrupted, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}

	s, _ := NewSession(p, nil, NewGPTuner(), opts)
	for i := 0; i < 3; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	params, err := s.Propose()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	r, err := ResumeSession(p, nil, NewGPTuner(), opts, cp)
	if err != nil {
		t.Fatal(err)
	}
	// The resumed session re-proposes the identical pending point
	// without consuming randomness.
	params2, err := r.Propose()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(params, params2) {
		t.Fatalf("pending proposal drifted: %v vs %v", params, params2)
	}
	h, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	assertHistoriesIdentical(t, uninterrupted, h)
}

func TestSessionProposeObserveRemoteMode(t *testing.T) {
	// A problem without an evaluator supports Propose/Observe (the
	// remote-worker mode) but rejects Step.
	p := quadProblem(t)
	eval := p.Evaluator
	p.Evaluator = nil
	t.Cleanup(func() { p.Evaluator = eval })

	s, err := NewSession(p, nil, NewGPTuner(), SessionOptions{Budget: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(); err == nil {
		t.Fatal("Step without evaluator must fail")
	}
	for !s.Done() {
		params, err := s.Propose()
		if err != nil {
			t.Fatal(err)
		}
		y, evalErr := eval.Evaluate(nil, params)
		if err := s.Observe(y, evalErr); err != nil {
			t.Fatal(err)
		}
	}
	if s.History().Len() != 3 {
		t.Fatalf("history length %d", s.History().Len())
	}
}

func TestSessionRecordsFailures(t *testing.T) {
	p := quadProblem(t)
	s, err := NewSession(p, nil, NewGPTuner(), SessionOptions{Budget: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Propose(); err != nil {
		t.Fatal(err)
	}
	if err := s.Observe(0, errors.New("oom")); err != nil {
		t.Fatal(err)
	}
	if s.History().NumOK() != 0 || s.History().Len() != 1 {
		t.Fatalf("failure not recorded: %+v", s.History())
	}
	if s.History().Samples[0].Err != "oom" {
		t.Fatalf("err text: %q", s.History().Samples[0].Err)
	}
}

func TestSessionValidation(t *testing.T) {
	p := quadProblem(t)
	if _, err := NewSession(p, nil, NewGPTuner(), SessionOptions{}); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := NewSession(p, nil, nil, SessionOptions{Budget: 1}); err == nil {
		t.Fatal("nil proposer accepted")
	}
	s, _ := NewSession(p, nil, NewGPTuner(), SessionOptions{Budget: 1, Seed: 1})
	if err := s.Observe(1, nil); err == nil {
		t.Fatal("Observe without proposal accepted")
	}
}

func TestResumeSessionRejectsMismatches(t *testing.T) {
	p := quadProblem(t)
	s, _ := NewSession(p, nil, NewGPTuner(), SessionOptions{Budget: 4, Seed: 1})
	s.Step()
	cp, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	other := quadProblem(t)
	other.Name = "different"
	if _, err := ResumeSession(other, nil, NewGPTuner(), SessionOptions{Budget: 4}, cp); err == nil {
		t.Fatal("problem mismatch accepted")
	}
	if _, err := ResumeSession(p, nil, nil, SessionOptions{Budget: 4}, cp); err == nil {
		t.Fatal("nil proposer accepted")
	}
	if _, err := ResumeSession(p, nil, NewGPTuner(), SessionOptions{}, []byte("{")); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
	wrong := &GPTuner{Acquisition: EI{}, MinSamples: 2, label: "Other"}
	if _, err := ResumeSession(p, nil, wrong, SessionOptions{}, cp); err == nil {
		t.Fatal("proposer mismatch accepted")
	}
	v1 := bytes.Replace(cp, []byte(`"version":2`), []byte(`"version":1`), 1)
	if _, err := ResumeSession(p, nil, NewGPTuner(), SessionOptions{}, v1); err == nil {
		t.Fatal("version-1 checkpoint accepted")
	}
}

func TestResumeSessionExtendsBudget(t *testing.T) {
	p := quadProblem(t)
	s, _ := NewSession(p, nil, NewGPTuner(), SessionOptions{Budget: 3, Seed: 5})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	cp, _ := s.Checkpoint()
	r, err := ResumeSession(p, nil, NewGPTuner(), SessionOptions{Budget: 6}, cp)
	if err != nil {
		t.Fatal(err)
	}
	h, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 6 {
		t.Fatalf("extended run length %d, want 6", h.Len())
	}
}

func TestCheckpointableSourceMatchesAfterRestore(t *testing.T) {
	src := NewCheckpointableSource(123)
	for i := 0; i < 10; i++ {
		src.Uint64()
	}
	state := src.State()
	want := make([]uint64, 16)
	for i := range want {
		want[i] = src.Uint64()
	}
	restored := &CheckpointableSource{}
	restored.SetState(state)
	for i := range want {
		if got := restored.Uint64(); got != want[i] {
			t.Fatalf("draw %d: %d want %d", i, got, want[i])
		}
	}
}

func TestCheckpointableSourceInt63NonNegative(t *testing.T) {
	src := NewCheckpointableSource(-7)
	for i := 0; i < 1000; i++ {
		if v := src.Int63(); v < 0 {
			t.Fatalf("Int63 returned negative %d", v)
		}
	}
	// Distinct seeds produce distinct streams.
	a, b := NewCheckpointableSource(1), NewCheckpointableSource(2)
	same := 0
	for i := 0; i < 16; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same == 16 {
		t.Fatal("seeds 1 and 2 produced identical streams")
	}
	// Sanity: output is roughly centered (catches a broken mixer).
	src = NewCheckpointableSource(99)
	sum := 0.0
	for i := 0; i < 4096; i++ {
		sum += float64(src.Uint64()>>11) / (1 << 53)
	}
	if mean := sum / 4096; math.Abs(mean-0.5) > 0.05 {
		t.Fatalf("mean %f far from 0.5", mean)
	}
}
