package crowd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gptunecrowd/internal/obs"
	"gptunecrowd/internal/space"
)

// syncBuffer makes the log sink safe for the server's concurrent
// handlers (slog serializes record encoding but the final Write still
// needs a safe writer when records come from many goroutines).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func suggestE2ESpace(t *testing.T) *space.Space {
	t.Helper()
	sp, err := space.New(
		space.Param{Name: "x", Kind: space.Real, Lo: 0, Hi: 1},
		space.Param{Name: "y", Kind: space.Real, Lo: 0, Hi: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func suggestE2EEval(i int) FuncEval {
	x := 0.05 + 0.9*float64(i%17)/16
	y := 0.05 + 0.9*float64((i*7)%13)/12
	return FuncEval{
		TuningProblemName: "qr",
		TuningParams:      map[string]interface{}{"x": x, "y": y},
		Output:            1 + math.Pow(x-0.3, 2) + math.Pow(y-0.6, 2) + 0.01*float64(i%5),
	}
}

// fitLine is the structured "suggest fit" record the e2e test asserts
// over: one per applied history snapshot, stamped with the trace of the
// request that launched the flight.
type fitLine struct {
	Msg     string `json:"msg"`
	Trace   string `json:"trace"`
	Problem string `json:"problem"`
	Kind    string `json:"kind"`
	Version uint64 `json:"version"`
}

func parseFitLines(t *testing.T, logText string) []fitLine {
	t.Helper()
	var out []fitLine
	for _, line := range strings.Split(logText, "\n") {
		if !strings.Contains(line, `"suggest fit"`) {
			continue
		}
		var fl fitLine
		if err := json.Unmarshal([]byte(line), &fl); err != nil {
			t.Fatalf("unparseable log line %q: %v", line, err)
		}
		if fl.Msg == "suggest fit" {
			out = append(out, fl)
		}
	}
	return out
}

// TestSuggestEndToEndConcurrent drives the full stack under -race: 32
// concurrent clients hammer POST /api/v1/suggest while an uploader
// keeps appending samples. It checks the consistency contract (no
// proposal lags the uploads it could have seen by the service's
// staleness bound or more),
// the single-flight fit economy (fit count stays near the number of
// history versions instead of scaling with request count), and
// client→server→fit-log trace propagation.
func TestSuggestEndToEndConcurrent(t *testing.T) {
	const (
		maxStale     = 16 // the suggest service's staleness bound
		nClients     = 32
		perClient    = 4
		seedBatch    = 8
		extraUploads = 40 // more than maxStale: the bound is crossed
	)
	var logBuf syncBuffer
	srv := NewServerWith(Config{
		SuggestSeed: 7,
		Slog:        obs.NewLogger(&logBuf, obs.LogOptions{JSON: true, Level: slog.LevelInfo}),
	})
	srv.RegisterProblemPolicy("qr", ProblemPolicy{Space: suggestE2ESpace(t)})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	alice := NewClient(ts.URL, "")
	if _, err := alice.Register("alice", ""); err != nil {
		t.Fatal(err)
	}

	seed := make([]FuncEval, seedBatch)
	for i := range seed {
		seed[i] = suggestE2EEval(i)
	}
	if _, err := alice.Upload(seed); err != nil {
		t.Fatal(err)
	}
	var uploaded atomic.Int64
	uploaded.Store(seedBatch)

	// Warm the cache so the storm exercises the hot path, not cold start.
	warmCtx := obs.WithTrace(context.Background(), "sug-warm")
	if _, err := alice.SuggestRemote(warmCtx, SuggestRequest{TuningProblemName: "qr"}); err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, nClients*perClient+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < extraUploads; i++ {
			ctx := obs.WithTrace(context.Background(), fmt.Sprintf("up-%d", i))
			if _, err := alice.UploadContext(ctx, []FuncEval{suggestE2EEval(seedBatch + i)}); err != nil {
				errs <- fmt.Errorf("upload %d: %w", i, err)
				return
			}
			uploaded.Add(1)
		}
	}()
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				ctx := obs.WithTrace(context.Background(), fmt.Sprintf("sug-%d-%d", c, j))
				before := uploaded.Load()
				resp, err := alice.SuggestRemote(ctx, SuggestRequest{TuningProblemName: "qr"})
				if err != nil {
					errs <- fmt.Errorf("client %d call %d: %w", c, j, err)
					return
				}
				// Consistency contract: the serving model may lag the
				// uploads completed before this request by fewer than
				// maxStale samples.
				if int64(resp.ModelVersion)+maxStale <= before-1 {
					errs <- fmt.Errorf("stale proposal: model version %d while %d samples were uploaded (max stale %d)",
						resp.ModelVersion, before, maxStale)
					return
				}
				if len(resp.TuningParams) != 2 || resp.Proposer == "" {
					errs <- fmt.Errorf("malformed response %+v", resp)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Let the service converge on the final history version: every call
	// with a nonzero gap schedules a background sync, so polling must
	// reach version == total uploads.
	total := uint64(seedBatch + extraUploads)
	deadline := time.Now().Add(10 * time.Second)
	for {
		ctx := obs.WithTrace(context.Background(), "sug-final")
		resp, err := alice.SuggestRemote(ctx, SuggestRequest{TuningProblemName: "qr"})
		if err != nil {
			t.Fatal(err)
		}
		if resp.ModelVersion == total {
			if resp.ModelSamples != int(total) {
				t.Fatalf("converged model trained on %d samples, want %d", resp.ModelSamples, total)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("model never converged to version %d (at %d)", total, resp.ModelVersion)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Fit economy: one flight per history generation, not per request.
	// Versions in the fit log must be non-decreasing (single-flight means
	// syncs never interleave), and the number of applied snapshots must
	// scale with the upload count, not the ~135 suggest requests.
	fits := parseFitLines(t, logBuf.String())
	if len(fits) == 0 {
		t.Fatal("no 'suggest fit' log lines")
	}
	maxFits := seedBatch + extraUploads + 3
	if len(fits) > maxFits {
		t.Fatalf("%d fits for %d history versions: single-flight dedup broken", len(fits), total)
	}
	for i := 1; i < len(fits); i++ {
		if fits[i].Version < fits[i-1].Version {
			t.Fatalf("fit versions regressed: %d after %d (concurrent flights?)", fits[i].Version, fits[i-1].Version)
		}
	}
	for _, fl := range fits {
		if fl.Problem != "qr" {
			t.Fatalf("fit for unexpected problem %q", fl.Problem)
		}
		// Every flight is launched by a suggest request and inherits its
		// trace: upload traces ("up-*") must never appear here.
		if !strings.HasPrefix(fl.Trace, "sug-") {
			t.Fatalf("fit line trace %q does not come from a suggest request", fl.Trace)
		}
	}
	if fits[len(fits)-1].Version != total {
		t.Fatalf("last fit at version %d, want %d", fits[len(fits)-1].Version, total)
	}

	st := srv.Metrics().Suggest
	if st.FullFits == 0 {
		t.Fatal("no full fits recorded")
	}
	if st.Requests < nClients*perClient {
		t.Fatalf("requests %d, want >= %d", st.Requests, nClients*perClient)
	}
	if st.CacheHits == 0 {
		t.Fatal("no cache hits under the storm: hot path never served")
	}
	// Every request in this test is valid, so each counts exactly one
	// cache hit or miss.
	if st.CacheHits+st.CacheMisses != st.Requests {
		t.Fatalf("hit/miss accounting: %d + %d != %d requests", st.CacheHits, st.CacheMisses, st.Requests)
	}
}

// TestSuggestTraceEchoAndErrors checks the HTTP surface of the
// endpoint: trace echo on the response, 400 on a bad acquisition, 404
// with a typed code on an unknown problem, and 405 on GET.
func TestSuggestTraceEchoAndErrors(t *testing.T) {
	srv := NewServerWith(Config{})
	srv.RegisterProblemPolicy("qr", ProblemPolicy{Space: suggestE2ESpace(t)})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	alice := NewClient(ts.URL, "")
	key, err := alice.Register("alice", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Upload([]FuncEval{suggestE2EEval(0), suggestE2EEval(1), suggestE2EEval(2)}); err != nil {
		t.Fatal(err)
	}

	body := bytes.NewBufferString(`{"tuning_problem_name":"qr"}`)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/suggest", body)
	req.Header.Set("X-Api-Key", key)
	req.Header.Set(obs.TraceHeader, "run-7.suggest")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != "run-7.suggest" {
		t.Fatalf("trace echo %q, want run-7.suggest", got)
	}
	var sr SuggestResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.ModelVersion != 3 || sr.ModelSamples != 3 {
		t.Fatalf("response %+v, want version 3 over 3 samples", sr)
	}

	var ae *APIError
	if _, err := alice.SuggestRemote(context.Background(), SuggestRequest{TuningProblemName: "qr", Acquisition: "argmax"}); err == nil {
		t.Fatal("unknown acquisition accepted")
	} else if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown acquisition: %v", err)
	}

	if _, err := alice.SuggestRemote(context.Background(), SuggestRequest{TuningProblemName: "nope"}); err == nil {
		t.Fatal("unknown problem accepted")
	} else if !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound || ae.Code != "unknown_problem" {
		t.Fatalf("unknown problem: %v", err)
	}

	get, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/suggest", nil)
	get.Header.Set("X-Api-Key", key)
	gresp, err := http.DefaultClient.Do(get)
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", gresp.StatusCode)
	}
}
