package crowd

import (
	"gptunecrowd/internal/obs"
	"gptunecrowd/internal/taskpool"
)

// serverMetrics backs the server's request accounting with the shared
// obs registry. The former hand-rolled mutex-protected stat map is
// gone: counters are registered once here, incremented lock-free on the
// hot path, and rendered two ways — as Prometheus text on /metrics and
// re-assembled into the legacy MetricsSnapshot JSON on /api/v1/stats
// (whose wire format is unchanged).
type serverMetrics struct {
	reg *obs.Registry

	status2xx *obs.Counter // crowd_http_requests_total{code="2xx"}
	status4xx *obs.Counter // crowd_http_requests_total{code="4xx"}
	status5xx *obs.Counter // crowd_http_requests_total{code="5xx"}
	inFlight  *obs.Gauge
	rejected  *obs.Counter
	timedOut  *obs.Counter
	duration  *obs.Histogram

	uploads            *obs.Counter
	replays            *obs.Counter
	queries            *obs.Counter
	samplesAccepted    *obs.Counter
	samplesQuarantined *obs.Counter
	docsScanned        map[string]*obs.Counter // crowd_store_docs_scanned_total{op=...}
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	const reqName = "crowd_http_requests_total"
	const reqHelp = "HTTP requests served, by status class."
	docsScanned := make(map[string]*obs.Counter)
	for _, op := range []string{"upload", "query", "problems", "suggest"} {
		docsScanned[op] = reg.Counter("crowd_store_docs_scanned_total",
			"Stored func_evals documents examined by the read paths, by operation.", obs.L("op", op))
	}
	return &serverMetrics{
		reg:       reg,
		status2xx: reg.Counter(reqName, reqHelp, obs.L("code", "2xx")),
		status4xx: reg.Counter(reqName, reqHelp, obs.L("code", "4xx")),
		status5xx: reg.Counter(reqName, reqHelp, obs.L("code", "5xx")),
		inFlight:  reg.Gauge("crowd_http_in_flight", "Requests currently being served."),
		rejected: reg.Counter("crowd_http_rejected_total",
			"Requests shed with 429 by the concurrency limiter."),
		timedOut: reg.Counter("crowd_http_timeouts_total",
			"Requests aborted with 503 by the per-request deadline."),
		duration: reg.Histogram("crowd_http_request_duration_seconds",
			"Wall time per served request.", nil),
		uploads: reg.Counter("crowd_uploads_total",
			"Upload batches stored (function evaluations and surrogate models)."),
		replays: reg.Counter("crowd_upload_replays_total",
			"Idempotent upload batch replays."),
		queries: reg.Counter("crowd_queries_total",
			"Function-evaluation queries served."),
		samplesAccepted: reg.Counter("crowd_samples_accepted_total",
			"Individual samples accepted through the trust layer."),
		samplesQuarantined: reg.Counter("crowd_samples_quarantined_total",
			"Individual samples routed to quarantine by validation."),
		docsScanned: docsScanned,
	}
}

// scanned adds one scan's examined-document count (what
// historydb.Collection.Scan returns) to its operation's counter.
func (m *serverMetrics) scanned(op string, docs int) { m.docsScanned[op].Add(int64(docs)) }

// observeStatus records one finished request.
func (m *serverMetrics) observeStatus(status int, seconds float64) {
	switch {
	case status >= 500:
		m.status5xx.Inc()
	case status >= 400:
		m.status4xx.Inc()
	default:
		m.status2xx.Inc()
	}
	if status == 429 {
		m.rejected.Inc()
	}
	if status == 503 {
		m.timedOut.Inc()
	}
	m.duration.Observe(seconds)
}

// registerDerivedMetrics publishes read-at-exposition-time families over
// the task pool and trust layer, so /metrics shows the same gauges as
// /api/v1/stats without a second set of counters to keep in sync.
func (s *Server) registerDerivedMetrics() {
	reg := s.metrics.reg
	taskGauge := func(state string, pick func(taskpool.Stats) int64) {
		reg.GaugeFunc("taskpool_tasks", "Tasks in the pool, by state.",
			func() float64 { return float64(pick(s.tasks.Stats())) }, obs.L("state", state))
	}
	taskGauge("queued", func(st taskpool.Stats) int64 { return st.Queued })
	taskGauge("leased", func(st taskpool.Stats) int64 { return st.Leased })
	taskGauge("completed", func(st taskpool.Stats) int64 { return st.Completed })
	taskGauge("dead", func(st taskpool.Stats) int64 { return st.Dead })

	taskCounter := func(name, help string, pick func(taskpool.Stats) int64) {
		reg.CounterFunc(name, help,
			func() float64 { return float64(pick(s.tasks.Stats())) })
	}
	taskCounter("taskpool_submitted_total", "Tasks ever submitted.",
		func(st taskpool.Stats) int64 { return st.Submitted })
	taskCounter("taskpool_leases_total", "Leases ever granted.",
		func(st taskpool.Stats) int64 { return st.Leases })
	taskCounter("taskpool_completions_total", "Tasks completed.",
		func(st taskpool.Stats) int64 { return st.Completions })
	taskCounter("taskpool_failures_total", "Explicit task failures reported by workers.",
		func(st taskpool.Stats) int64 { return st.Failures })
	taskCounter("taskpool_expired_requeues_total", "Leases expired and requeued.",
		func(st taskpool.Stats) int64 { return st.ExpiredRequeues })
	taskCounter("taskpool_dead_lettered_total", "Tasks dead-lettered after exhausting attempts.",
		func(st taskpool.Stats) int64 { return st.DeadLettered })

	reg.CounterFunc("quarantine_samples_total", "Samples ever quarantined.",
		func() float64 { return float64(s.qCounters.snapshot().Total) })
	reg.GaugeFunc("quarantine_held", "Samples currently held in quarantine.",
		func() float64 { return float64(s.qCounters.snapshot().Held) })
	reg.CounterFunc("quarantine_released_total", "Quarantined samples released by an admin.",
		func() float64 { return float64(s.qCounters.snapshot().Released) })
	reg.GaugeFunc("reputation_tracked_users", "Uploaders with trust-layer reputation state.",
		func() float64 { return float64(len(s.reputation.snapshot())) })
}

// snapshot re-assembles the legacy MetricsSnapshot from the registry
// counters; the /api/v1/stats JSON shape is part of the wire contract.
func (m *serverMetrics) snapshot() MetricsSnapshot {
	s2, s4, s5 := m.status2xx.Value(), m.status4xx.Value(), m.status5xx.Value()
	return MetricsSnapshot{
		Requests:           s2 + s4 + s5,
		InFlight:           m.inFlight.Value(),
		Rejected:           m.rejected.Value(),
		TimedOut:           m.timedOut.Value(),
		Status2xx:          s2,
		Status4xx:          s4,
		Status5xx:          s5,
		Uploads:            m.uploads.Value(),
		Replays:            m.replays.Value(),
		Queries:            m.queries.Value(),
		SamplesAccepted:    m.samplesAccepted.Value(),
		SamplesQuarantined: m.samplesQuarantined.Value(),
	}
}
