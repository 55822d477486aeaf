package obs

import (
	"bytes"
	"context"
	"log/slog"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "total requests", L("code", "2xx"))
	c.Add(3)
	r.Counter("requests_total", "total requests", L("code", "5xx")).Inc()
	g := r.Gauge("in_flight", "in-flight requests")
	g.Set(7)
	g.Dec()
	r.GaugeFunc("queue_depth", "queued items", func() float64 { return 4 })
	r.CounterFunc("external_total", "externally maintained", func() float64 { return 9 })

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP requests_total total requests",
		"# TYPE requests_total counter",
		`requests_total{code="2xx"} 3`,
		`requests_total{code="5xx"} 1`,
		"# TYPE in_flight gauge",
		"in_flight 6",
		"queue_depth 4",
		"external_total 9",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", "help")
	b := r.Counter("c_total", "help")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	h1 := r.Histogram("h_seconds", "help", nil)
	h2 := r.Histogram("h_seconds", "help", nil)
	if h1 != h2 {
		t.Fatal("re-registration returned a different histogram")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type-mismatched re-registration did not panic")
		}
	}()
	r.Gauge("c_total", "help")
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count %d", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-9 {
		t.Fatalf("sum %v", h.Sum())
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("conc_seconds", "concurrent", []float64{1})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count %d, want 8000", h.Count())
	}
	if math.Abs(h.Sum()-4000) > 1e-6 {
		t.Fatalf("sum %v, want 4000", h.Sum())
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "x_total 1") {
		t.Fatalf("body: %s", buf.String())
	}
	post, err := srv.Client().Post(srv.URL, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != 405 {
		t.Fatalf("POST /metrics status %d, want 405", post.StatusCode)
	}
}

func TestTraceContext(t *testing.T) {
	ctx := context.Background()
	if TraceID(ctx) != "" {
		t.Fatal("background context has a trace")
	}
	id := NewTraceID()
	if TraceID(WithTrace(ctx, id)) != id {
		t.Fatalf("WithTrace lost trace %q", id)
	}
	if len(id) != 32 || !ValidTraceID(id) {
		t.Fatalf("generated trace id %q", id)
	}
	for in, want := range map[string]bool{
		"abc-DEF_123.x":         true,
		"":                      false,
		"has space":             false,
		"läsion":                false,
		strings.Repeat("a", 65): false,
		strings.Repeat("a", 64): true,
	} {
		if got := ValidTraceID(in); got != want {
			t.Fatalf("ValidTraceID(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestLoggerTraceAttr(t *testing.T) {
	var buf bytes.Buffer
	logger := NewLogger(&buf, LogOptions{JSON: true, Level: slog.LevelDebug})
	ctx := WithTrace(context.Background(), "trace-xyz")
	logger.InfoContext(ctx, "hello", "k", "v")
	logger.Info("no-trace")
	out := buf.String()
	if !strings.Contains(out, `"trace":"trace-xyz"`) {
		t.Fatalf("trace attr missing: %s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 || strings.Contains(lines[1], "trace-xyz") {
		t.Fatalf("trace leaked into traceless record: %s", out)
	}
	// Nop must swallow everything without panicking.
	Nop().InfoContext(ctx, "dropped")
	Or(nil).Error("dropped too")
	if l := Or(logger); l != logger {
		t.Fatal("Or replaced a non-nil logger")
	}
}

func TestDebugMux(t *testing.T) {
	r := NewRegistry()
	r.Counter("dbg_total", "x").Inc()
	srv := httptest.NewServer(DebugMux(r))
	defer srv.Close()
	for path, wantIn := range map[string]string{
		"/metrics":      "dbg_total 1",
		"/debug/pprof/": "profiles",
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(buf.String(), wantIn) {
			t.Fatalf("%s: status %d body %.120q", path, resp.StatusCode, buf.String())
		}
	}
}
