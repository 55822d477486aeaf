package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"gptunecrowd/internal/crowd"
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-test")
	if err != nil {
		panic(err)
	}
	workDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// assertMetrics: a run emits exactly the declared metrics, each once,
// each a finite number under a well-formed name.
func assertMetrics(t *testing.T, o *outcome, defs []metricDef) {
	t.Helper()
	if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d (first: %v)", o.Correct, o.Attempted, o.Failed, o.firstErr)
	}
	if len(o.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d declared", len(o.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := o.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s not emitted", d.Name)
			continue
		}
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is malformed", d.Name)
		}
		if m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v %q, want a finite number in %q", d.Name, m.Value, m.Unit, d.Unit)
		}
	}
}

// TestSmoke drives every workload through both passes at toy sizes, so
// the harness cannot rot unnoticed.
func TestSmoke(t *testing.T) {
	env := captureEnvironment(3)
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			o, err := runUntraced(w, smokeScale, 3, 0.4)
			if err != nil {
				t.Fatal(err)
			}
			assertMetrics(t, o, endToEnd)
			for _, d := range endToEnd {
				if o.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, o.Metrics[d.Name].Value)
				}
			}

			traceOut := filepath.Join(t.TempDir(), "trace.json")
			o, err = runTraced(w, smokeScale, 3, 0.4, traceOut, env)
			if err != nil {
				t.Fatal(err)
			}
			assertMetrics(t, o, perLayer)
			if r := o.Metrics["trace.overhead_ratio"].Value; r <= 0 {
				t.Errorf("trace.overhead_ratio = %v", r)
			}
			b, err := os.ReadFile(traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(b, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Spans) == 0 || tf.Environment.GoVersion == "" || tf.Environment.Seed != 3 {
				t.Errorf("trace file holds %d spans, environment %+v", len(tf.Spans), tf.Environment)
			}
			for _, s := range tf.Spans {
				if s.Workload != w.name || s.Name == "" || s.EndNs < s.StartNs || s.Span == 0 {
					t.Fatalf("malformed span %+v", s)
				}
			}
		})
	}
}

// TestSameSeedSameInputs: the operation sequence is a function of the
// seed alone.
func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := mixSequence(smokeScale, 7, 200), mixSequence(smokeScale, 7, 200), mixSequence(smokeScale, 8, 200)
	ja, _ := json.Marshal(a[0].samples)
	same, differs := true, false
	for i := range a {
		if a[i].kind != b[i].kind || a[i].problem != b[i].problem || a[i].task != b[i].task {
			same = false
		}
		if a[i].kind != c[i].kind || a[i].problem != c[i].problem {
			differs = true
		}
	}
	if !same || !differs || len(ja) == 0 {
		t.Errorf("same seed repeats: %v, other seed differs: %v", same, differs)
	}
}

func reply(x, y float64, modelSamples int) *crowd.SuggestResponse {
	return &crowd.SuggestResponse{TuningParams: map[string]interface{}{"x": x, "y": y}, ModelSamples: modelSamples}
}

// TestChecksFire: every output check rejects a deliberately corrupted
// reply and accepts the intact one.
func TestChecksFire(t *testing.T) {
	history := newPointSet()
	history.add(0.25, 0.75)
	if err := checkSuggest(reply(0.5, 0.5, 64), 1, true, history); err != nil {
		t.Errorf("intact reply rejected: %v", err)
	}
	batch := &crowd.SuggestResponse{ModelSamples: 8, Proposals: []crowd.SuggestProposal{
		{TuningParams: map[string]interface{}{"x": 0.1, "y": 0.2}},
		{TuningParams: map[string]interface{}{"x": 0.3, "y": 0.4}},
	}}
	if err := checkSuggest(batch, 2, false, history); err != nil {
		t.Errorf("intact batch rejected: %v", err)
	}
	corrupted := []struct {
		why   string
		resp  *crowd.SuggestResponse
		batch int
	}{
		{"outside the space", reply(1.5, 0.5, 64), 1},
		{"negative coordinate", reply(0.5, -0.1, 64), 1},
		{"already in the history", reply(0.25, 0.75, 64), 1},
		{"no fitted model", reply(0.5, 0.5, 0), 1},
		{"not numeric", &crowd.SuggestResponse{TuningParams: map[string]interface{}{"x": "a", "y": 0.5}, ModelSamples: 64}, 1},
		{"short batch", batch, 3},
	}
	for _, c := range corrupted {
		if err := checkSuggest(c.resp, c.batch, true, history); err == nil {
			t.Errorf("reply %s was accepted", c.why)
		}
	}

	if err := checkUpload([]string{"1", "2"}, 2); err != nil {
		t.Errorf("intact upload rejected: %v", err)
	}
	for why, ids := range map[string][]string{"missing id": {"1"}, "repeated id": {"1", "1"}, "empty id": {"1", ""}} {
		if err := checkUpload(ids, 2); err == nil {
			t.Errorf("upload with %s was accepted", why)
		}
	}

	docs := []crowd.FuncEval{{ID: "1"}, {ID: "2"}, {ID: "3"}}
	if err := checkCovers(docs, []string{"1", "3"}); err != nil {
		t.Errorf("covering query rejected: %v", err)
	}
	if err := checkCovers(docs, []string{"1", "4"}); err == nil {
		t.Error("query missing an acknowledged sample was accepted")
	}
	want := map[string]bool{"1": true, "2": true, "3": true}
	if err := checkExact(docs, want); err != nil {
		t.Errorf("exact query rejected: %v", err)
	}
	for why, got := range map[string][]crowd.FuncEval{
		"a lost document":      docs[:2],
		"a duplicate id":       append(append([]crowd.FuncEval(nil), docs...), crowd.FuncEval{ID: "2"}),
		"an unexpected extra":  append(append([]crowd.FuncEval(nil), docs[:2]...), crowd.FuncEval{ID: "9"}),
		"an extra and a match": append(append([]crowd.FuncEval(nil), docs...), crowd.FuncEval{ID: "9"}),
	} {
		if err := checkExact(got, want); err == nil {
			t.Errorf("query with %s was accepted", why)
		}
	}

	// A run is incorrect once more than 1 % of its operations fail.
	m := &measurement{}
	m.attempted, m.failed = 1000, 11
	if newOutcome(m).Correct {
		t.Error("a run with 1.1 % failures counts as correct")
	}
	m.failed = 10
	if !newOutcome(m).Correct {
		t.Error("a run with 1.0 % failures counts as incorrect")
	}
}

// TestArithmetic: percentiles and span self times on synthetic data.
func TestArithmetic(t *testing.T) {
	var sample []float64
	for i := 100; i >= 1; i-- {
		sample = append(sample, float64(i))
	}
	for q, want := range map[float64]float64{0.50: 50, 0.95: 95, 0.99: 99, 1.0: 100} {
		if got := percentile(sample, q); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", q, got, want)
		}
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("percentile of one sample = %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := beyond(100, 0.95); got != 5 {
		t.Errorf("beyond(100, 0.95) = %d, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}

	// One request: a root with two overlapping children and one apart;
	// one of the children has a child of its own.
	spans := []span{
		{Trace: 1, Span: 1, Parent: 0, Name: "client", StartNs: 0, EndNs: 100},
		{Trace: 1, Span: 2, Parent: 1, Name: "predict", StartNs: 10, EndNs: 30},
		{Trace: 1, Span: 3, Parent: 1, Name: "predict", StartNs: 20, EndNs: 50},
		{Trace: 1, Span: 4, Parent: 1, Name: "predict", StartNs: 60, EndNs: 70},
		{Trace: 1, Span: 5, Parent: 3, Name: "kernel", StartNs: 25, EndNs: 45},
		{Trace: 2, Span: 6, Parent: 0, Name: "client", StartNs: 200, EndNs: 260},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 50, 2: 20, 3: 10, 4: 10, 5: 20, 6: 60} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if got := covered(0, 100, []interval{{-20, 10}, {90, 150}, {40, 40}}); got != 20 {
		t.Errorf("covered clips to the parent: got %d, want 20", got)
	}
}

// TestManifest: the committed BENCHMARK.json is what the code declares,
// and it stays inside the driver's limits.
func TestManifest(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from `bench -manifest`; regenerate it")
	}
	if len(want) > 64<<10 {
		t.Errorf("manifest is %d bytes", len(want))
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || runSeconds < 1 || runSeconds > 60 {
		t.Errorf("%d end-to-end, %d per-layer metrics, run_seconds %d", len(endToEnd), len(perLayer), runSeconds)
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		unique(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters", w.name)
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		unique(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("bound of %s is %v", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range perLayer {
		unique(d.Name)
		if d.moves == "" {
			t.Errorf("per-layer metric %s does not say what it should move", d.Name)
		}
	}
}
