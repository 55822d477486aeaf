package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result of one run of one workload, in the shape the
// driver reads from the last line of standard output.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// samples is the size of the smallest latency sample behind a p50 and
	// p95, and firstErr the first failure seen; both are for the human
	// report.
	samples  int
	firstErr error
}

// maxFailRatio is the share of operations that may fail before a run is
// declared incorrect.
const maxFailRatio = 0.01

func newOutcome(m *measurement) *outcome {
	return &outcome{
		Correct:   m.attempted > 0 && float64(m.failed) <= maxFailRatio*float64(m.attempted),
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   make(map[string]metric),
		samples:   len(m.latencies()),
		firstErr:  m.firstErr,
	}
}

// err is non-nil for a run too many of whose operations failed.
func (o *outcome) err(workload string) error {
	if o.Correct {
		return nil
	}
	return fmt.Errorf("%s: %d of %d operations failed (first: %v)", workload, o.Failed, o.Attempted, o.firstErr)
}

func (o *outcome) set(defs []metricDef, values map[string]float64) error {
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		o.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		for name := range values {
			if _, ok := o.Metrics[name]; !ok {
				return fmt.Errorf("metric %s is measured but not declared", name)
			}
		}
	}
	return nil
}

// latencies is the latency sample: the primary operations.
func (m *measurement) latencies() []float64 {
	var out []float64
	for _, o := range m.ops {
		if o.primary {
			out = append(out, o.latency)
		}
	}
	return out
}

func opsPerSecond(m *measurement) float64 { return ratio(float64(len(m.ops)), m.elapsed) }

// runUntraced measures the end-to-end metrics of one workload. It sets
// the workload up several times, each on a seed of its own; setup_s is
// the median of those. A workload of several windows measures one
// window on every set-up and reports, per metric, the median window:
// every window starts from the same state, so they are exchangeable and
// one stretch disturbed by a noisy neighbour does not decide the
// number. A workload of one window — one that needs its state to keep
// growing — measures it on the last set-up.
func runUntraced(w workload, sc scale, seed int64, seconds float64) (*outcome, error) {
	windows := w.windows
	if windows > sc.setupReps {
		windows = sc.setupReps
	}
	var (
		setups, rates, p50s, p95s []float64
		total                     measurement
		samples                   = -1
	)
	for i := 0; i < sc.setupReps; i++ {
		t0 := time.Now()
		fx, err := w.setup(sc, seed+104729*int64(sc.setupReps-1-i))
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i >= sc.setupReps-windows {
			m := fx.measure(seconds/float64(windows), nil)
			fx.verify(m)
			sample := m.latencies()
			rates = append(rates, opsPerSecond(m))
			p50s = append(p50s, percentile(sample, 0.50))
			p95s = append(p95s, percentile(sample, 0.95))
			if samples < 0 || len(sample) < samples {
				samples = len(sample)
			}
			total.addCounts(&m.clientLog)
		}
		fx.close()
	}
	o := newOutcome(&total)
	o.samples = samples
	err := o.set(endToEnd, map[string]float64{
		"ops_per_s": median(rates),
		"p50_ms":    1000 * median(p50s),
		"p95_ms":    1000 * median(p95s),
		"quality_y": ratio(total.qualitySum, float64(total.qualityN)),
		"setup_s":   median(setups),
	})
	return o, err
}

// processUsage is the process-wide cost counters read around the traced
// window.
type processUsage struct {
	mallocs  uint64
	gcPause  uint64
	cpu      time.Duration
	peakRSSk int64
}

func readUsage() processUsage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u := processUsage{mallocs: ms.Mallocs, gcPause: ms.PauseTotalNs}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		u.peakRSSk = int64(ru.Maxrss)
	}
	return u
}

// runTraced measures the per-layer metrics of one workload. Half the
// window runs untraced and half traced, each on a fresh set-up so both
// halves see the same history sizes and refit schedule; their ratio is
// the tracing overhead. The layer probes and the ladder follow, and the
// spans go to traceOut.
func runTraced(w workload, sc scale, seed int64, seconds float64, traceOut string, env environment) (*outcome, error) {
	half := func(tr *tracer) (*measurement, processUsage, processUsage, error) {
		fx, err := w.setup(sc, seed)
		if err != nil {
			return nil, processUsage{}, processUsage{}, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		defer fx.close()
		before := readUsage()
		m := fx.measure(seconds/2, tr)
		after := readUsage()
		fx.verify(m)
		return m, before, after, nil
	}
	plain, _, _, err := half(nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer(w.name)
	traced, before, after, err := half(tr)
	if err != nil {
		return nil, err
	}

	values, err := runProbes(sc, seed, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: probes: %w", w.name, err)
	}
	// Counters the window did not move read 0: the workload does not
	// exercise that layer.
	for _, d := range perLayer {
		if _, ok := values[d.Name]; !ok {
			values[d.Name] = traced.counters[d.Name]
		}
	}
	ops := float64(len(traced.ops))
	values["op.upload_p95_ms"] = 1000 * percentile(traced.byKind["upload"], 0.95)
	values["op.query_p95_ms"] = 1000 * percentile(traced.byKind["query"], 0.95)
	values["op.suggest_p95_ms"] = 1000 * percentile(traced.byKind["suggest"], 0.95)
	values["process.allocs_per_op"] = ratio(float64(after.mallocs-before.mallocs), ops)
	values["process.cpu_ms_per_op"] = ratio(float64(after.cpu-before.cpu)/float64(time.Millisecond), ops)
	values["process.gc_pause_ms_total"] = float64(after.gcPause-before.gcPause) / float64(time.Millisecond)
	values["process.peak_rss_mb"] = float64(readUsage().peakRSSk) / 1024
	values["trace.overhead_ratio"] = ratio(opsPerSecond(traced), opsPerSecond(plain))

	if err := tr.write(traceOut, env); err != nil {
		return nil, fmt.Errorf("%s: write trace: %w", w.name, err)
	}
	traced.addCounts(&plain.clientLog)
	o := newOutcome(traced)
	return o, o.set(perLayer, values)
}
