package crowd

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gptunecrowd/internal/taskpool"
)

func taskServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv := NewServerWith(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, "")
	if _, err := c.Register("alice", ""); err != nil {
		t.Fatal(err)
	}
	return srv, c
}

func demoTaskSpec(seed int64) taskpool.Spec {
	return taskpool.Spec{App: "demo", Budget: 4, Seed: seed}
}

func TestTaskEndpointsLifecycle(t *testing.T) {
	_, c := taskServer(t, Config{})
	id, err := c.SubmitTaskContext(context.Background(), demoTaskSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	task, ttl, err := c.LeaseTaskContext(context.Background(), "w1", taskpool.MachineConstraint{})
	if err != nil || task == nil {
		t.Fatalf("lease: %v %v", task, err)
	}
	if task.ID != id || task.LeaseToken == "" || ttl <= 0 {
		t.Fatalf("lease response: %+v ttl=%v", task, ttl)
	}
	// An empty pool leases nil without error.
	if empty, _, err := c.LeaseTaskContext(context.Background(), "w2", taskpool.MachineConstraint{}); err != nil || empty != nil {
		t.Fatalf("empty lease: %v %v", empty, err)
	}
	if _, err := c.HeartbeatTaskContext(context.Background(), task.ID, task.LeaseToken); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	err = c.CompleteTaskContext(context.Background(), task.ID, task.LeaseToken, taskpool.Result{BestY: 0.5, NumEvals: 4})
	if err != nil {
		t.Fatalf("complete: %v", err)
	}
	// Retrying a complete after a lost response is idempotent.
	if err := c.CompleteTaskContext(context.Background(), task.ID, task.LeaseToken, taskpool.Result{BestY: 9}); err != nil {
		t.Fatalf("replayed complete: %v", err)
	}
	done, err := c.ListTasksContext(context.Background(), taskpool.StateCompleted)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 || done[0].Result.BestY != 0.5 {
		t.Fatalf("completed list: %+v", done)
	}
	if done[0].LeaseToken != "" {
		t.Fatal("lease token leaked in list response")
	}
}

func TestTaskEndpointErrorMapping(t *testing.T) {
	_, c := taskServer(t, Config{})
	c.MaxRetries = -1
	var apiErr *APIError

	// Validation error → 400.
	if _, err := c.SubmitTaskContext(context.Background(), taskpool.Spec{App: "demo"}); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: %v", err)
	}
	// Unknown id → 404.
	if _, err := c.HeartbeatTaskContext(context.Background(), "t99", "tok"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("missing task: %v", err)
	}
	// Stale token → 409, and the client does not retry it.
	if _, err := c.SubmitTaskContext(context.Background(), demoTaskSpec(1)); err != nil {
		t.Fatal(err)
	}
	task, _, err := c.LeaseTaskContext(context.Background(), "w1", taskpool.MachineConstraint{})
	if err != nil || task == nil {
		t.Fatalf("lease: %v %v", task, err)
	}
	if err := c.CompleteTaskContext(context.Background(), task.ID, "stale", taskpool.Result{}); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
		t.Fatalf("stale complete: %v", err)
	}
	if apiErr.Temporary() {
		t.Fatal("409 must not be retryable")
	}
	// Task endpoints require auth.
	anon := NewClient(c.BaseURL, "")
	anon.MaxRetries = -1
	if _, err := anon.SubmitTaskContext(context.Background(), demoTaskSpec(2)); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnauthorized {
		t.Fatalf("anon submit: %v", err)
	}
}

func TestTaskLeaseExpiryOverHTTP(t *testing.T) {
	srv, c := taskServer(t, Config{TaskLeaseTTL: 30 * time.Millisecond, TaskMaxAttempts: 3})
	if _, err := c.SubmitTaskContext(context.Background(), demoTaskSpec(1)); err != nil {
		t.Fatal(err)
	}
	task, _, err := c.LeaseTaskContext(context.Background(), "crashy", taskpool.MachineConstraint{})
	if err != nil || task == nil {
		t.Fatalf("lease: %v %v", task, err)
	}
	time.Sleep(50 * time.Millisecond)
	srv.TaskPool().ExpireLeases()
	// The crashed worker's token is now stale...
	c.MaxRetries = -1
	var apiErr *APIError
	if err := c.CompleteTaskContext(context.Background(), task.ID, task.LeaseToken, taskpool.Result{}); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
		t.Fatalf("stale complete after expiry: %v", err)
	}
	// ...and another worker picks the task up.
	again, _, err := c.LeaseTaskContext(context.Background(), "healthy", taskpool.MachineConstraint{})
	if err != nil || again == nil || again.ID != task.ID {
		t.Fatalf("re-lease: %v %v", again, err)
	}
	if again.Attempts != 2 {
		t.Fatalf("attempts: %d", again.Attempts)
	}
}

func TestTaskFailCarriesCheckpointOverHTTP(t *testing.T) {
	_, c := taskServer(t, Config{})
	if _, err := c.SubmitTaskContext(context.Background(), demoTaskSpec(1)); err != nil {
		t.Fatal(err)
	}
	task, _, _ := c.LeaseTaskContext(context.Background(), "w1", taskpool.MachineConstraint{})
	state, err := c.FailTaskContext(context.Background(), task.ID, task.LeaseToken, "draining", json.RawMessage(`{"iter":2}`))
	if err != nil || state != taskpool.StateQueued {
		t.Fatalf("fail: %v %v", state, err)
	}
	next, _, _ := c.LeaseTaskContext(context.Background(), "w2", taskpool.MachineConstraint{})
	if next == nil || string(next.Spec.Checkpoint) != `{"iter":2}` {
		t.Fatalf("checkpoint not carried: %+v", next)
	}
}

// TestStatsReportsTaskPool covers the /api/v1/stats task-pool gauges:
// every lifecycle transition shows up in the snapshot a client fetches.
func TestStatsReportsTaskPool(t *testing.T) {
	srv, c := taskServer(t, Config{TaskLeaseTTL: 20 * time.Millisecond, TaskMaxAttempts: 2})
	for i := 0; i < 4; i++ {
		if _, err := c.SubmitTaskContext(context.Background(), demoTaskSpec(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	l1, _, _ := c.LeaseTaskContext(context.Background(), "w1", taskpool.MachineConstraint{})
	l2, _, _ := c.LeaseTaskContext(context.Background(), "w2", taskpool.MachineConstraint{})
	if err := c.CompleteTaskContext(context.Background(), l1.ID, l1.LeaseToken, taskpool.Result{BestY: 1}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond)
	srv.TaskPool().ExpireLeases() // l2's lease expires, requeued

	snap, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tp := snap.TaskPool
	if tp.Queued != 3 || tp.Leased != 0 || tp.Completed != 1 || tp.Dead != 0 {
		t.Fatalf("gauges: %+v", tp)
	}
	if tp.Submitted != 4 || tp.Leases != 2 || tp.Completions != 1 || tp.ExpiredRequeues != 1 {
		t.Fatalf("counters: %+v", tp)
	}
	// Burn l2's remaining attempt to surface the dead-letter gauge. A
	// requeued task rejoins at the back of the queue, so drain until it
	// comes around.
	var l3 *taskpool.Task
	for i := 0; i < 3; i++ {
		got, _, err := c.LeaseTaskContext(context.Background(), "w3", taskpool.MachineConstraint{})
		if err != nil || got == nil {
			t.Fatalf("drain lease %d: %v %v", i, got, err)
		}
		if got.ID == l2.ID {
			l3 = got
			break
		}
	}
	if l3 == nil {
		t.Fatal("requeued task never came around")
	}
	time.Sleep(40 * time.Millisecond)
	srv.TaskPool().ExpireLeases()
	snap, err = c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.TaskPool.Dead != 1 || snap.TaskPool.DeadLettered != 1 {
		t.Fatalf("dead-letter gauges: %+v", snap.TaskPool)
	}
}
