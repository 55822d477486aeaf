package gptunecrowd

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gptunecrowd/internal/crowd"
)

// TestTuneContextCancellationCheckpoint cancels a run mid-flight and
// checks the partial Result carries a checkpoint that resumes to the
// full budget.
func TestTuneContextCancellationCheckpoint(t *testing.T) {
	p := demoProblem()
	task := map[string]interface{}{"t": 1.0}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := TuneContext(ctx, p, task, TuneOptions{
		Budget: 8,
		Seed:   3,
		OnSample: func(i int, s Sample) {
			if i == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Checkpoint) == 0 {
		t.Fatalf("cancelled run did not return a checkpoint: %+v", res)
	}
	if n := res.History.Len(); n == 0 || n >= 8 {
		t.Fatalf("partial history has %d samples, want in (0, 8)", n)
	}

	sess, err := ResumeTuningSession(p, task, TuneOptions{Budget: 8, Seed: 3}, res.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	full, err := sess.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if full.History.Len() != 8 {
		t.Fatalf("resumed run has %d samples, want 8", full.History.Len())
	}
	if full.BestY > res.History.Samples[0].Y+1e12 {
		t.Fatal("resumed best ignored earlier samples")
	}
}

// TestTuneRecordsStageTimers runs Tune with a Metrics registry and
// checks all four tuner stage histograms recorded observations.
func TestTuneRecordsStageTimers(t *testing.T) {
	m := NewMetrics()
	if _, err := Tune(demoProblem(), map[string]interface{}{"t": 1.0}, TuneOptions{
		Budget: 6, Seed: 1, Metrics: m,
	}); err != nil {
		t.Fatal(err)
	}
	counts := stageCounts(t, m)
	for _, name := range []string{
		"tuner_fit_seconds_count",
		"tuner_search_seconds_count",
		"tuner_propose_seconds_count",
		"tuner_evaluate_seconds_count",
	} {
		if counts[name] < 1 {
			t.Fatalf("%s = %v, want >= 1", name, counts[name])
		}
	}
	if counts["tuner_propose_seconds_count"] != 6 || counts["tuner_evaluate_seconds_count"] != 6 {
		t.Fatalf("propose/evaluate counts %v/%v, want 6/6",
			counts["tuner_propose_seconds_count"], counts["tuner_evaluate_seconds_count"])
	}
}

// countingTransport counts round trips so the test can prove a custom
// Transport is actually used.
type countingTransport struct {
	n    atomic.Int64
	base http.RoundTripper
}

func (ct *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ct.n.Add(1)
	return ct.base.RoundTrip(r)
}

// TestConnectWithOptions checks ConnectWith honours MaxRetries, Timeout
// and Transport.
func TestConnectWithOptions(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	rt := &countingTransport{base: http.DefaultTransport}
	c := ConnectWith(ConnectOptions{URL: ts.URL, APIKey: "k", MaxRetries: 2, Transport: rt})
	c.BackoffBase = time.Millisecond
	c.BackoffMax = 2 * time.Millisecond
	_, err := c.Stats(context.Background())
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (1 + 2 retries)", got)
	}
	if got := rt.n.Load(); got != 3 {
		t.Fatalf("custom transport saw %d round trips, want 3", got)
	}

	// Negative MaxRetries disables retries entirely.
	hits.Store(0)
	c2 := ConnectWith(ConnectOptions{URL: ts.URL, APIKey: "k", MaxRetries: -1})
	if _, err := c2.Stats(context.Background()); err == nil {
		t.Fatal("expected error")
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d attempts with retries disabled, want 1", got)
	}

	// Timeout bounds a single slow attempt.
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
		}
	}))
	defer slow.Close()
	c3 := ConnectWith(ConnectOptions{URL: slow.URL, APIKey: "k", Timeout: 30 * time.Millisecond, MaxRetries: -1})
	start := time.Now()
	if _, err := c3.Stats(context.Background()); err == nil {
		t.Fatal("expected timeout error")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("timed-out request took %s, want well under the 2s handler sleep", d)
	}
}

// TestSentinelErrorsTable exercises errors.Is over every exported
// sentinel, through APIError status-code mapping and wrapping.
func TestSentinelErrorsTable(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("while uploading: %w", err) }
	cases := []struct {
		name   string
		err    error
		target error
		want   bool
	}{
		{"401 is unauthorized", &crowd.APIError{StatusCode: 401}, ErrUnauthorized, true},
		{"403 is unauthorized", &crowd.APIError{StatusCode: 403}, ErrUnauthorized, true},
		{"429 is overloaded", &crowd.APIError{StatusCode: 429}, ErrOverloaded, true},
		{"503 is overloaded", &crowd.APIError{StatusCode: 503}, ErrOverloaded, true},
		{"500 is not overloaded", &crowd.APIError{StatusCode: 500}, ErrOverloaded, false},
		{"401 is not overloaded", &crowd.APIError{StatusCode: 401}, ErrOverloaded, false},
		{"quarantine code maps", &crowd.APIError{StatusCode: 409, Code: "quarantined"}, ErrQuarantined, true},
		{"plain 409 does not", &crowd.APIError{StatusCode: 409}, ErrQuarantined, false},
		{"wrapped 401", wrap(&crowd.APIError{StatusCode: 401}), ErrUnauthorized, true},
		{"wrapped quarantine sentinel", wrap(ErrQuarantined), ErrQuarantined, true},
		{"wrapped overload sentinel", wrap(ErrOverloaded), ErrOverloaded, true},
		{"wrapped budget sentinel", wrap(ErrBudgetExhausted), ErrBudgetExhausted, true},
		{"budget is not unauthorized", ErrBudgetExhausted, ErrUnauthorized, false},
	}
	for _, tc := range cases {
		if got := errors.Is(tc.err, tc.target); got != tc.want {
			t.Errorf("%s: errors.Is = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestBudgetSentinelLive drives a real session past its budget and
// checks the returned error matches ErrBudgetExhausted.
func TestBudgetSentinelLive(t *testing.T) {
	sess, err := NewTuningSession(demoProblem(), map[string]interface{}{"t": 1.0}, TuneOptions{Budget: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.StepContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, err = sess.ProposeContext(context.Background())
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
}

// TestUnauthorizedSentinelLive checks the sentinel surfaces through a
// real server round trip with a bad API key.
func TestUnauthorizedSentinelLive(t *testing.T) {
	ts := httptest.NewServer(crowd.NewServerWith(crowd.Config{}))
	defer ts.Close()
	c := ConnectWith(ConnectOptions{URL: ts.URL, APIKey: "wrong-key", MaxRetries: -1})
	_, err := c.Query(QueryRequest{TuningProblemName: "x"})
	if !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("err = %v, want ErrUnauthorized", err)
	}
}
