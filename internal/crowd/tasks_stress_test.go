package crowd

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gptunecrowd/internal/taskpool"
)

// TestStressDuplicateComplete races 64 goroutines completing and
// failing 16 leased tasks — four with the winning lease token and
// different results, plus stale-token completions and fails — and
// checks exactly-once semantics: each task is completed once, the
// first result sticks, Completions counts 16 (not 64), and every
// stale-token operation gets a clean 409.
func TestStressDuplicateComplete(t *testing.T) {
	const nTasks = 16
	srv := NewServerWith(Config{MaxInFlight: 256})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	httpc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 128}}
	t.Cleanup(httpc.CloseIdleConnections)
	c := NewClient(ts.URL, "")
	c.HTTP = httpc
	fastRetry(c)
	if _, err := c.Register("alice", ""); err != nil {
		t.Fatal(err)
	}

	leases := make([]*taskpool.Task, nTasks)
	for i := range leases {
		if _, err := c.SubmitTaskContext(context.Background(), taskpool.Spec{App: "demo", Budget: 2, Seed: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range leases {
		task, _, err := c.LeaseTaskContext(context.Background(), "w", taskpool.MachineConstraint{})
		if err != nil || task == nil {
			t.Fatalf("lease %d: %v %v", i, task, err)
		}
		leases[i] = task
	}

	var (
		wg     sync.WaitGroup
		errMu  sync.Mutex
		errs   []error
		stale  atomic.Int64
		donera atomic.Int64 // completed-without-error count
	)
	fail := func(err error) {
		errMu.Lock()
		errs = append(errs, err)
		errMu.Unlock()
	}
	// 64 goroutines: per task, two winning-token completers with
	// different results, one stale-token completer, one stale-token
	// failer.
	for i, lease := range leases {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(l *taskpool.Task, y float64) {
				defer wg.Done()
				cl := NewClient(ts.URL, c.APIKey)
				cl.HTTP = httpc
				fastRetry(cl)
				if err := cl.CompleteTaskContext(context.Background(), l.ID, l.LeaseToken, taskpool.Result{BestY: y}); err != nil {
					fail(fmt.Errorf("complete %s: %w", l.ID, err))
					return
				}
				donera.Add(1)
			}(lease, float64(10*i+g))
		}
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(l *taskpool.Task, doFail bool) {
				defer wg.Done()
				cl := NewClient(ts.URL, c.APIKey)
				cl.HTTP = httpc
				fastRetry(cl)
				cl.MaxRetries = -1
				var err error
				if doFail {
					_, err = cl.FailTaskContext(context.Background(), l.ID, "not-the-token", "bogus", nil)
				} else {
					err = cl.CompleteTaskContext(context.Background(), l.ID, "not-the-token", taskpool.Result{BestY: -1})
				}
				var apiErr *APIError
				if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
					fail(fmt.Errorf("stale op on %s: want 409, got %v", l.ID, err))
					return
				}
				stale.Add(1)
			}(lease, g == 1)
		}
	}
	wg.Wait()
	for _, err := range errs {
		t.Error(err)
	}
	if donera.Load() != int64(2*nTasks) || stale.Load() != int64(2*nTasks) {
		t.Fatalf("completer/staler counts: %d %d", donera.Load(), stale.Load())
	}

	st := srv.TaskPool().Stats()
	if st.Completions != nTasks || st.Completed != nTasks {
		t.Fatalf("completions counted %d times for %d tasks: %+v", st.Completions, nTasks, st)
	}
	for i, lease := range leases {
		got, ok := srv.TaskPool().Get(lease.ID)
		if !ok || got.State != taskpool.StateCompleted {
			t.Fatalf("task %s: %+v", lease.ID, got)
		}
		// First winning complete sticks; the duplicate winner replayed.
		if y := got.Result.BestY; y != float64(10*i) && y != float64(10*i+1) {
			t.Fatalf("task %s result overwritten: %v", lease.ID, y)
		}
	}
}

// TestStressLeaseExpiryRequeue runs 64 goroutines against a pool with a
// short lease TTL: every task's first lease is deliberately abandoned
// (no heartbeat, no complete), so it must come back via TTL expiry and
// be completed on a later attempt. Invariants: all tasks end completed
// exactly once, every task was requeued at least once, and nothing is
// dead-lettered.
func TestStressLeaseExpiryRequeue(t *testing.T) {
	const (
		nTasks   = 24
		nWorkers = 48
		nPollers = 16 // 64 goroutines total
	)
	// The TTL must comfortably exceed a complete round-trip under -race
	// contention, or completes lose to the reaper and tasks burn through
	// their attempt cap.
	srv := NewServerWith(Config{
		MaxInFlight:     256,
		TaskLeaseTTL:    300 * time.Millisecond,
		TaskMaxAttempts: 1000,
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	httpc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 128}}
	t.Cleanup(httpc.CloseIdleConnections)
	c := NewClient(ts.URL, "")
	c.HTTP = httpc
	fastRetry(c)
	if _, err := c.Register("alice", ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nTasks; i++ {
		if _, err := c.SubmitTaskContext(context.Background(), taskpool.Spec{App: "demo", Budget: 2, Seed: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}

	var (
		wg    sync.WaitGroup
		errMu sync.Mutex
		errs  []error
	)
	fail := func(err error) {
		errMu.Lock()
		errs = append(errs, err)
		errMu.Unlock()
	}
	deadline := time.Now().Add(20 * time.Second)
	done := func() bool {
		st := srv.TaskPool().Stats()
		return st.Completed == nTasks
	}

	// Workers lease; an Attempts==1 lease is abandoned (simulating a
	// crash), later attempts complete. The pool's lazy sweep inside
	// Lease requeues expired leases, so abandonment resolves on its own.
	for g := 0; g < nWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := NewClient(ts.URL, c.APIKey)
			cl.HTTP = httpc
			fastRetry(cl)
			for !done() {
				if time.Now().After(deadline) {
					fail(fmt.Errorf("worker %d: deadline with %+v", g, srv.TaskPool().Stats()))
					return
				}
				task, _, err := cl.LeaseTaskContext(context.Background(), fmt.Sprintf("w%d", g), taskpool.MachineConstraint{})
				if err != nil {
					fail(fmt.Errorf("worker %d lease: %w", g, err))
					return
				}
				if task == nil {
					time.Sleep(5 * time.Millisecond)
					continue
				}
				if task.Attempts == 1 {
					continue // abandon: let the TTL reap it
				}
				err = cl.CompleteTaskContext(context.Background(), task.ID, task.LeaseToken, taskpool.Result{BestY: 1})
				var apiErr *APIError
				if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusConflict {
					continue // lease expired under us; someone else will finish it
				}
				if err != nil {
					fail(fmt.Errorf("worker %d complete %s: %w", g, task.ID, err))
					return
				}
			}
		}(g)
	}
	// Pollers hammer stats and the task listing concurrently.
	for g := 0; g < nPollers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := NewClient(ts.URL, c.APIKey)
			cl.HTTP = httpc
			fastRetry(cl)
			for !done() && time.Now().Before(deadline) {
				if _, err := cl.ListTasksContext(context.Background(), ""); err != nil {
					fail(fmt.Errorf("list: %w", err))
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		t.Fatal(err)
	}

	st := srv.TaskPool().Stats()
	if st.Completed != nTasks || st.Completions != nTasks {
		t.Fatalf("not every task completed exactly once: %+v", st)
	}
	if st.Dead != 0 {
		t.Fatalf("dead-lettered tasks under stress: %+v", st)
	}
	if st.ExpiredRequeues < nTasks {
		t.Fatalf("every first lease was abandoned, want >= %d expiry requeues: %+v", nTasks, st)
	}
	for _, task := range srv.TaskPool().List("") {
		if task.State != taskpool.StateCompleted || task.Attempts < 2 {
			t.Fatalf("task %s: state=%s attempts=%d", task.ID, task.State, task.Attempts)
		}
	}
}
