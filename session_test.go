package gptunecrowd

import (
	"context"
	"testing"

	"gptunecrowd/internal/core"
)

func mustNoTLA(tb testing.TB) Proposer {
	tb.Helper()
	prop, err := NewProposer("NoTLA", nil, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return prop
}

func sessionProblem(t *testing.T) *Problem {
	t.Helper()
	ps, err := NewSpace(
		Param{Name: "x", Kind: Real, Lo: -5, Hi: 5},
		Param{Name: "n", Kind: Integer, Lo: 1, Hi: 8},
	)
	if err != nil {
		t.Fatal(err)
	}
	return &Problem{
		Name:       "session-quad",
		ParamSpace: ps,
		Evaluator: EvaluatorFunc(func(task, params map[string]interface{}) (float64, error) {
			x := params["x"].(float64)
			n := float64(params["n"].(int))
			return x*x + 0.1*n, nil
		}),
	}
}

// TestTuningSessionMatchesTune pins the one-driver property: for one
// seed and proposer, Tune, a TuningSession, TuneBatch at batch size 1
// and core.RunLoop produce the same history bit for bit.
func TestTuningSessionMatchesTune(t *testing.T) {
	p := sessionProblem(t)
	opts := TuneOptions{Budget: 6, Seed: 11}
	s, err := NewTuningSession(p, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Algorithm() != "NoTLA" {
		t.Fatalf("algorithm %q", s.Algorithm())
	}
	res, err := s.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.History.Len() != 6 || res.BestParams == nil {
		t.Fatalf("result: %+v", res)
	}

	tuned, err := Tune(p, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameHistory(t, "Tune vs TuningSession.Run", res.History, tuned.History)
	batched, err := TuneBatchContext(context.Background(), p, nil, BatchTuneOptions{TuneOptions: opts, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	assertSameHistory(t, "TuneBatch{BatchSize: 1} vs Tune", tuned.History, batched.History)
	looped, err := core.RunLoop(p, nil, mustNoTLA(t), core.SessionOptions{Budget: opts.Budget, Seed: opts.Seed})
	if err != nil {
		t.Fatal(err)
	}
	assertSameHistory(t, "core.RunLoop vs Tune", tuned.History, looped)
}

func TestTuningSessionCheckpointResume(t *testing.T) {
	p := sessionProblem(t)
	opts := TuneOptions{Budget: 6, Seed: 4}

	full, err := NewTuningSession(p, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	s, _ := NewTuningSession(p, nil, opts)
	for i := 0; i < 3; i++ {
		if err := s.StepContext(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	r, err := ResumeTuningSession(p, nil, opts, cp)
	if err != nil {
		t.Fatal(err)
	}
	if r.Iter() != 3 || r.Done() {
		t.Fatalf("resumed at iter %d done=%v", r.Iter(), r.Done())
	}
	got, err := r.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want.History.Len() != got.History.Len() {
		t.Fatalf("history %d vs %d", want.History.Len(), got.History.Len())
	}
	for i := range want.History.Samples {
		a, b := want.History.Samples[i], got.History.Samples[i]
		if a.Y != b.Y {
			t.Fatalf("sample %d: y %v vs %v", i, a.Y, b.Y)
		}
		for j := range a.ParamU {
			if a.ParamU[j] != b.ParamU[j] {
				t.Fatalf("sample %d dim %d: %v vs %v", i, j, a.ParamU[j], b.ParamU[j])
			}
		}
		// Decoded params keep their Go types across the JSON round trip.
		if _, ok := b.Params["n"].(int); !ok {
			t.Fatalf("sample %d: integer param decoded as %T", i, b.Params["n"])
		}
	}
	// The resumed run rejects a different algorithm.
	if _, err := ResumeTuningSession(p, nil, TuneOptions{Budget: 6, Algorithm: "Multitask(PS)", Sources: []*SourceTask{NewSource("s", [][]float64{{0.5, 0.5}}, []float64{1})}}, cp); err == nil {
		t.Fatal("algorithm mismatch accepted")
	}
}

func TestTuningSessionRemoteEvaluation(t *testing.T) {
	p := sessionProblem(t)
	eval := p.Evaluator
	p.Evaluator = nil
	s, err := NewTuningSession(p, nil, TuneOptions{Budget: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for !s.Done() {
		params, err := s.ProposeContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		y, evalErr := eval.Evaluate(nil, params)
		if err := s.Observe(y, evalErr); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.RunContext(context.Background()) // already done: just reports
	if err != nil {
		t.Fatal(err)
	}
	if res.History.Len() != 4 {
		t.Fatalf("history %d", res.History.Len())
	}
}
