package main

import (
	"sync"
	"time"
)

// clients is the number of closed-loop client goroutines, one
// connection each: the box has two cores, and the servers under test
// run in this same process.
const clients = 2

// clientLog is what one closed-loop client observed. Each client owns
// its log, so recording takes no lock.
type clientLog struct {
	ops        []op                 // every completed closed-loop operation
	byKind     map[string][]float64 // their latencies, seconds, split by operation type
	lags       []float64            // acknowledged uploads minus model version, per reply
	attempted  int
	failed     int
	qualitySum float64
	qualityN   int
	firstErr   error
}

// op is one completed operation. Every one counts toward throughput;
// the primary ones make up the latency sample behind p50 and p95.
type op struct {
	latency float64 // seconds
	primary bool
}

// ok records a completed operation. Failures never reach it: their
// latencies stay out of every sample.
func (l *clientLog) ok(kind string, d time.Duration, primary bool) {
	l.attempted++
	l.ops = append(l.ops, op{latency: d.Seconds(), primary: primary})
	if l.byKind == nil {
		l.byKind = make(map[string][]float64)
	}
	l.byKind[kind] = append(l.byKind[kind], d.Seconds())
}

// check counts one operation or after-the-window output check that
// leaves no latency behind: a failure when err is set.
func (l *clientLog) check(err error) {
	l.attempted++
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
	}
}

// fail counts an operation that errored, was shed, or failed an output
// check.
func (l *clientLog) fail(err error) { l.check(err) }

// addCounts folds another log's attempts, failures and quality in,
// leaving its latency samples out.
func (l *clientLog) addCounts(o *clientLog) {
	l.attempted += o.attempted
	l.failed += o.failed
	l.qualitySum += o.qualitySum
	l.qualityN += o.qualityN
	if l.firstErr == nil {
		l.firstErr = o.firstErr
	}
}

func (l *clientLog) quality(y float64) {
	l.qualitySum += y
	l.qualityN++
}

// measurement is one measured window of one workload.
type measurement struct {
	clientLog
	elapsed float64 // seconds from the first timed operation to the last reply
	// counters are the layer counts this window moved, read from the
	// program's public stats (suggest.Service.Stats, crowd.Server.Metrics,
	// replog.Log.Stats) and keyed by per-layer metric name.
	counters map[string]float64
}

func (m *measurement) merge(logs []*clientLog) {
	m.byKind = make(map[string][]float64)
	for _, l := range logs {
		m.ops = append(m.ops, l.ops...)
		m.lags = append(m.lags, l.lags...)
		for k, v := range l.byKind {
			m.byKind[k] = append(m.byKind[k], v...)
		}
		m.addCounts(l)
	}
}

// runClients runs body on n goroutines, each with its own log, waits
// for all of them and returns a measurement of the window they took.
func runClients(n int, body func(c int, log *clientLog)) *measurement {
	logs := make([]*clientLog, n)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < n; c++ {
		logs[c] = &clientLog{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body(c, logs[c])
		}(c)
	}
	wg.Wait()
	m := &measurement{elapsed: time.Since(start).Seconds()}
	m.merge(logs)
	return m
}

// fixture is one workload set up and ready for its first timed
// operation.
type fixture interface {
	// measure drives the workload for the given window. tr is nil on an
	// untraced pass.
	measure(seconds float64, tr *tracer) *measurement
	// verify runs the after-the-window output checks, counting each
	// violation into m.failed.
	verify(m *measurement)
	close()
}

// workload names one traffic shape and knows how to set it up.
type workload struct {
	name string
	why  string
	// windows is how many measured windows share a run's seconds, each
	// on a fresh set-up. Workloads whose state must keep growing through
	// the run (session_cycle's cache churn, tune_tla's fixed rounds) take
	// one.
	windows int
	setup   func(sc scale, seed int64) (fixture, error)
}
