package crowd

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestStressMixedTraffic hammers a live HTTP crowd server with 64
// goroutines of mixed traffic — uploads, queries, problem listings,
// surrogate-model traffic and registrations — and then checks the
// invariants the crowd repository must hold under contention:
//
//   - no lost writes: every uploaded sample is visible afterwards
//   - no duplicate ids: server-assigned _ids are globally unique
//   - snapshot consistency: a concurrent query sees each upload batch
//     either completely or not at all (batches are applied atomically)
//
// Run under -race; the numbers are sized to finish in a couple of
// seconds while still producing heavy interleaving.
func TestStressMixedTraffic(t *testing.T) {
	const (
		nUploaders   = 16
		nQueriers    = 16
		nListers     = 8
		nModelers    = 8
		nRegistrants = 16 // 64 goroutines total
		batches      = 4
		batchSize    = 4
		queryIters   = 10 // snapshot checks per querier
	)
	ts := httptest.NewServer(NewServerWith(Config{MaxInFlight: 256}))
	t.Cleanup(ts.Close)

	// One shared pool sized for the goroutine count: the default
	// transport keeps only 2 idle conns per host, which serializes 64
	// goroutines behind TCP connection churn.
	httpc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 128}}
	t.Cleanup(httpc.CloseIdleConnections)

	newUser := func(name string) *Client {
		c := NewClient(ts.URL, "")
		c.HTTP = httpc
		c.BackoffBase = time.Millisecond
		c.BackoffMax = 8 * time.Millisecond
		if _, err := c.Register(name, name+"@example.com"); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
		return c
	}
	reader := newUser("reader")

	var (
		wg     sync.WaitGroup
		idMu   sync.Mutex
		allIDs []string
		errMu  sync.Mutex
		errs   []error
	)
	fail := func(err error) {
		errMu.Lock()
		errs = append(errs, err)
		errMu.Unlock()
	}
	done := make(chan struct{})

	// Uploaders: each uploads `batches` atomic batches of `batchSize`
	// samples, every sample tagged with its batch so queriers can check
	// batch atomicity.
	for u := 0; u < nUploaders; u++ {
		c := newUser(fmt.Sprintf("uploader-%d", u))
		wg.Add(1)
		go func(u int, c *Client) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				tag := fmt.Sprintf("u%d-b%d", u, b)
				evals := make([]FuncEval, batchSize)
				for i := range evals {
					evals[i] = FuncEval{
						TuningProblemName: "stress",
						TaskParams:        map[string]interface{}{"m": 1000},
						TuningParams:      map[string]interface{}{"batch": tag, "i": i},
						Output:            float64(i),
						Accessibility:     "public",
					}
				}
				ids, err := c.Upload(evals)
				if err != nil {
					fail(fmt.Errorf("upload %s: %w", tag, err))
					return
				}
				idMu.Lock()
				allIDs = append(allIDs, ids...)
				idMu.Unlock()
			}
		}(u, c)
	}

	// Queriers: repeatedly snapshot the problem and check that every
	// batch they see is complete. Iterations are capped so the pollers
	// don't saturate small CI machines; they stop early once writers
	// are done.
	for q := 0; q < nQueriers; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < queryIters; iter++ {
				select {
				case <-done:
					return
				default:
				}
				evals, err := reader.Query(QueryRequest{TuningProblemName: "stress"})
				if err != nil {
					fail(fmt.Errorf("query: %w", err))
					return
				}
				time.Sleep(2 * time.Millisecond) // keep pollers from starving writers

				seen := map[string]int{}
				ids := map[string]bool{}
				for _, e := range evals {
					tag, _ := e.TuningParams["batch"].(string)
					seen[tag]++
					if ids[e.ID] {
						fail(fmt.Errorf("duplicate _id %q in one query snapshot", e.ID))
						return
					}
					ids[e.ID] = true
				}
				for tag, n := range seen {
					if n != batchSize {
						fail(fmt.Errorf("torn batch %q: saw %d of %d samples", tag, n, batchSize))
						return
					}
				}
			}
		}()
	}

	// Problem listers.
	for l := 0; l < nListers; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < queryIters; iter++ {
				select {
				case <-done:
					return
				default:
				}
				if _, err := reader.Problems(); err != nil {
					fail(fmt.Errorf("problems: %w", err))
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	// Surrogate-model traffic on a separate collection.
	for m := 0; m < nModelers; m++ {
		c := newUser(fmt.Sprintf("modeler-%d", m))
		wg.Add(1)
		go func(m int, c *Client) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				doc := SurrogateModelDoc{
					TuningProblemName: "stress-model",
					NumSamples:        batchSize,
					Model:             json.RawMessage(`{"kind":"gp"}`),
				}
				if _, err := c.UploadModelsContext(context.Background(), []SurrogateModelDoc{doc}); err != nil {
					fail(fmt.Errorf("model upload: %w", err))
					return
				}
				if _, err := c.QueryModelsContext(context.Background(), "stress-model", 0); err != nil {
					fail(fmt.Errorf("model query: %w", err))
					return
				}
			}
		}(m, c)
	}

	// Registrants: fresh usernames plus deliberate duplicates, which
	// must fail with 409 — never corrupt the user index.
	for r := 0; r < nRegistrants; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := NewClient(ts.URL, "")
			c.HTTP = httpc
			c.BackoffBase = time.Millisecond
			if _, err := c.Register(fmt.Sprintf("late-%d", r), ""); err != nil {
				fail(fmt.Errorf("register late-%d: %w", r, err))
				return
			}
			dup := NewClient(ts.URL, "")
			dup.HTTP = httpc
			dup.BackoffBase = time.Millisecond
			if _, err := dup.Register("reader", ""); err == nil {
				fail(fmt.Errorf("duplicate registration of %q succeeded", "reader"))
			}
		}(r)
	}

	// Let writers finish, then release the pollers.
	go func() {
		defer close(done)
		deadline := time.After(30 * time.Second)
		for {
			errMu.Lock()
			failed := len(errs) > 0
			errMu.Unlock()
			idMu.Lock()
			n := len(allIDs)
			idMu.Unlock()
			if failed || n >= nUploaders*batches*batchSize {
				return
			}
			select {
			case <-deadline:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()
	wg.Wait()

	errMu.Lock()
	defer errMu.Unlock()
	for _, err := range errs {
		t.Error(err)
	}
	if len(errs) > 0 {
		t.FailNow()
	}

	// No lost writes, no duplicate ids.
	want := nUploaders * batches * batchSize
	if len(allIDs) != want {
		t.Fatalf("uploaders recorded %d ids, want %d", len(allIDs), want)
	}
	uniq := map[string]bool{}
	for _, id := range allIDs {
		if uniq[id] {
			t.Fatalf("server assigned duplicate id %q", id)
		}
		uniq[id] = true
	}
	final, err := reader.Query(QueryRequest{TuningProblemName: "stress"})
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != want {
		t.Fatalf("final query sees %d samples, want %d (lost writes)", len(final), want)
	}
	for _, e := range final {
		if !uniq[e.ID] {
			t.Fatalf("query returned id %q no uploader received", e.ID)
		}
	}
}

// TestStressConcurrentSameBatchID sends the same idempotent batch from
// many goroutines at once: exactly one application must win and all
// callers must observe the same ids.
func TestStressConcurrentSameBatchID(t *testing.T) {
	ts := httptest.NewServer(NewServer())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, "")
	if _, err := c.Register("dup", ""); err != nil {
		t.Fatal(err)
	}

	req := UploadRequest{
		BatchID: "fixed-batch-id",
		FuncEvals: []FuncEval{
			{TuningProblemName: "p", TuningParams: map[string]interface{}{"x": 1}, Output: 1},
			{TuningProblemName: "p", TuningParams: map[string]interface{}{"x": 2}, Output: 2},
		},
	}
	const callers = 32
	results := make([][]string, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp UploadResponse
			if err := c.post(t.Context(), "/api/v1/func_eval/upload", req, &resp); err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			results[i] = resp.IDs
		}(i)
	}
	wg.Wait()
	evals, err := c.Query(QueryRequest{TuningProblemName: "p"})
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 2 {
		t.Fatalf("batch applied %d samples, want exactly 2 (idempotency broken)", len(evals))
	}
	for i := 1; i < callers; i++ {
		if fmt.Sprint(results[i]) != fmt.Sprint(results[0]) {
			t.Fatalf("caller %d got ids %v, caller 0 got %v", i, results[i], results[0])
		}
	}
}
