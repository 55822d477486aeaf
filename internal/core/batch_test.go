package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"gptunecrowd/internal/space"
)

// runLoopBatch drives a fresh GP-tuner session in rounds of k proposals
// evaluated on up to workers goroutines.
func runLoopBatch(p *Problem, opts SessionOptions, k, workers int) (*History, error) {
	s, err := NewSession(p, nil, newTestProposer(), opts)
	if err != nil {
		return nil, err
	}
	return s.RunBatchContext(context.Background(), k, workers)
}

func TestRunLoopBatchConsumesBudget(t *testing.T) {
	p := quadProblem(t)
	h, err := runLoopBatch(p, SessionOptions{Budget: 11, Seed: 1}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 11 {
		t.Fatalf("budget: %d", h.Len())
	}
	if _, ok := h.Best(); !ok {
		t.Fatal("no best")
	}
}

func TestRunLoopBatchProposesDistinctPoints(t *testing.T) {
	// Constant-liar batching must not propose the same point several
	// times in one round.
	p := quadProblem(t)
	h, err := runLoopBatch(p, SessionOptions{Budget: 8, Seed: 2}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]float64]int{}
	for _, s := range h.Samples {
		key := [2]float64{s.ParamU[0], s.ParamU[1]}
		seen[key]++
	}
	for k, n := range seen {
		if n > 1 {
			t.Fatalf("point %v proposed %d times", k, n)
		}
	}
}

func TestRunLoopBatchActuallyParallel(t *testing.T) {
	ps := space.MustNew(space.Param{Name: "x", Kind: space.Real, Lo: 0, Hi: 1})
	var inFlight, maxInFlight int64
	p := &Problem{
		Name:       "slow",
		ParamSpace: ps,
		Evaluator: EvaluatorFunc(func(_, params map[string]interface{}) (float64, error) {
			cur := atomic.AddInt64(&inFlight, 1)
			for {
				old := atomic.LoadInt64(&maxInFlight)
				if cur <= old || atomic.CompareAndSwapInt64(&maxInFlight, old, cur) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			atomic.AddInt64(&inFlight, -1)
			return params["x"].(float64), nil
		}),
	}
	_, err := runLoopBatch(p, SessionOptions{Budget: 8, Seed: 3}, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt64(&maxInFlight) < 2 {
		t.Fatalf("max in-flight = %d, want >= 2", maxInFlight)
	}
}

func TestRunLoopBatchDeterministicOrder(t *testing.T) {
	p := quadProblem(t)
	run := func() []float64 {
		h, err := runLoopBatch(p, SessionOptions{Budget: 9, Seed: 4}, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, h.Len())
		for i, s := range h.Samples {
			out[i] = s.Y
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRunLoopBatchFailuresRecorded(t *testing.T) {
	ps := space.MustNew(space.Param{Name: "x", Kind: space.Real, Lo: 0, Hi: 1})
	var n int64
	p := &Problem{
		Name:       "flaky",
		ParamSpace: ps,
		Evaluator: EvaluatorFunc(func(_, params map[string]interface{}) (float64, error) {
			if atomic.AddInt64(&n, 1)%3 == 0 {
				return 0, errors.New("oom")
			}
			return params["x"].(float64), nil
		}),
	}
	h, err := runLoopBatch(p, SessionOptions{Budget: 9, Seed: 5}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 9 {
		t.Fatal("failures must consume budget")
	}
	if h.NumOK() != 6 {
		t.Fatalf("NumOK = %d", h.NumOK())
	}
}

func TestRunLoopBatchValidation(t *testing.T) {
	p := quadProblem(t)
	if _, err := runLoopBatch(p, SessionOptions{}, 2, 0); err == nil {
		t.Fatal("expected budget error")
	}
}

func TestOnSampleOrderInBatch(t *testing.T) {
	p := quadProblem(t)
	next := 0
	_, err := runLoopBatch(p, SessionOptions{Budget: 6, Seed: 6,
		OnSample: func(i int, s Sample) {
			if i != next {
				t.Fatalf("callback out of order: %d want %d", i, next)
			}
			next++
		}}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if next != 6 {
		t.Fatalf("callbacks fired %d times", next)
	}
}
