package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// (or one ladder replay) share Trace; Parent is the span that caused
// this one, 0 for a root. Times are nanoseconds since the tracer began.
type span struct {
	Trace    int64  `json:"trace"`
	Span     int64  `json:"span"`
	Parent   int64  `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the benchmark
// ends. A nil *tracer records nothing, so untraced runs pay one nil
// check per boundary. Spans are recorded from the benchmark's own files
// around calls into each layer; spans inside the program are a later
// issue.
type tracer struct {
	workload string
	origin   time.Time
	nextID   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// open is an unfinished span.
type open struct {
	t *tracer
	s span
}

// newTrace allocates an identifier shared by the spans of one request.
func (t *tracer) newTrace() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

func (t *tracer) start(trace, parent int64, name string) open {
	if t == nil {
		return open{}
	}
	return open{t: t, s: span{
		Trace: trace, Span: t.nextID.Add(1), Parent: parent, Name: name,
		Workload: t.workload, StartNs: int64(time.Since(t.origin)),
	}}
}

// id is the span identifier children name as their parent.
func (o open) id() int64 { return o.s.Span }

func (o open) end() {
	if o.t == nil {
		return
	}
	o.s.EndNs = int64(time.Since(o.t.origin))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// traceFile is the on-disk form: the environment record beside the
// spans, so a trace can be tied back to the run that produced it.
type traceFile struct {
	Environment environment `json:"environment"`
	Spans       []span      `json:"spans"`
}

func (t *tracer) write(path string, env environment) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(traceFile{Environment: env, Spans: t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
