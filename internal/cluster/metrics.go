package cluster

// Metric families. Node-side families land on the wrapped crowd
// server's registry (so one /metrics endpoint per node covers both
// layers); coordinator families live on the coordinator's own
// registry. replog_* gauges are derived straight from Log.Stats(), so
// scrapes always see the live log positions.

import (
	"gptunecrowd/internal/obs"
	"gptunecrowd/internal/replog"
)

type nodeMetrics struct {
	appliedRecords  *obs.Counter
	commitTimeouts  *obs.Counter
	replicationErrs *obs.Counter
	followerDeaths  *obs.Counter
	stepDowns       *obs.Counter
	promotions      *obs.Counter
	resyncs         *obs.Counter
	journalErrors   *obs.Counter
}

func newNodeMetrics(reg *obs.Registry, n *Node) *nodeMetrics {
	m := &nodeMetrics{
		appliedRecords: reg.Counter("cluster_applied_records_total",
			"Replicated log records applied by this node's follower path."),
		commitTimeouts: reg.Counter("cluster_commit_timeouts_total",
			"Writes answered 503 because followers did not acknowledge in time."),
		replicationErrs: reg.Counter("cluster_replication_errors_total",
			"Failed replication pushes (send errors and per-log apply failures)."),
		followerDeaths: reg.Counter("cluster_follower_deaths_total",
			"Followers dropped from the commit quorum after consecutive push failures."),
		stepDowns: reg.Counter("cluster_stepdowns_total",
			"Stale leaders demoted to follower after a promoted node fenced their stream."),
		promotions: reg.Counter("cluster_promotions_total",
			"Times this node was promoted to shard leader."),
		resyncs: reg.Counter("cluster_resyncs_total",
			"Truncation resyncs: diverged follower logs rebuilt from the leader's snapshot."),
		journalErrors: reg.Counter("cluster_journal_errors_total",
			"Requests answered 503 journal_failed: a replicated-log append failed and the node fail-stopped."),
	}
	reg.GaugeFunc("cluster_is_leader",
		"1 when this node leads its shard, 0 on followers.",
		func() float64 {
			if n.Role() == RoleLeader {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("cluster_epoch",
		"Promotion epoch of the leadership this node holds or follows.",
		func() float64 { return float64(n.Epoch()) })
	reg.GaugeFunc("cluster_fenced",
		"1 while this node is a demoted leader awaiting a truncation resync.",
		func() float64 {
			if n.Fenced() {
				return 1
			}
			return 0
		})
	n.logs.each(func(name string, j *replog.Journal) {
		registerLogMetrics(reg, name, j.Log())
	})
	return m
}

// registerLogMetrics derives the replog_* families for one log.
func registerLogMetrics(reg *obs.Registry, name string, lg *replog.Log) {
	l := obs.L("log", name)
	stat := func(f func(replog.Stats) float64) func() float64 {
		return func() float64 { return f(lg.Stats()) }
	}
	reg.GaugeFunc("replog_last_index", "Highest appended log index.",
		stat(func(s replog.Stats) float64 { return float64(s.LastIndex) }), l)
	reg.GaugeFunc("replog_commit_index", "Highest replication-committed log index.",
		stat(func(s replog.Stats) float64 { return float64(s.CommitIndex) }), l)
	reg.GaugeFunc("replog_snapshot_index", "Index folded into the base snapshot.",
		stat(func(s replog.Stats) float64 { return float64(s.SnapIndex) }), l)
	reg.GaugeFunc("replog_entries", "Retained (non-compacted) log entries.",
		stat(func(s replog.Stats) float64 { return float64(s.Entries) }), l)
	reg.CounterFunc("replog_appends_total", "Records appended since open.",
		stat(func(s replog.Stats) float64 { return float64(s.Appends) }), l)
	reg.CounterFunc("replog_compactions_total", "Log compactions since open.",
		stat(func(s replog.Stats) float64 { return float64(s.Compactions) }), l)
}

type coordMetrics struct {
	routed             *obs.Counter
	fanouts            *obs.Counter
	retries            *obs.Counter
	failovers          *obs.Counter
	detectorProbes     *obs.Counter
	detectorMisses     *obs.Counter
	detectorPromotions *obs.Counter
	detectorDemotions  *obs.Counter
}

func newCoordMetrics(reg *obs.Registry, c *Coordinator) *coordMetrics {
	m := &coordMetrics{
		routed: reg.Counter("cluster_routed_requests_total",
			"Requests routed to a single owning shard."),
		fanouts: reg.Counter("cluster_fanout_requests_total",
			"Requests fanned out to every shard (problems, task list, stats, register)."),
		retries: reg.Counter("cluster_route_retries_total",
			"Shard requests retried on a refreshed leader."),
		failovers: reg.Counter("cluster_failovers_total",
			"Leader changes adopted after probing a shard's replicas."),
		detectorProbes: reg.Counter("cluster_detector_probes_total",
			"Supervisor health probes of shard leaders."),
		detectorMisses: reg.Counter("cluster_detector_misses_total",
			"Supervisor probes that found a shard's adopted leader unhealthy."),
		detectorPromotions: reg.Counter("cluster_detector_promotions_total",
			"Automatic follower promotions executed by the supervisor."),
		detectorDemotions: reg.Counter("cluster_detector_demotions_total",
			"Recovered stale leaders demoted back to follower by the supervisor."),
	}
	reg.GaugeFunc("cluster_shards", "Shards in the routing topology.",
		func() float64 { return float64(len(c.snapshotTopology().Shards)) })
	reg.GaugeFunc("cluster_topology_version", "Monotonic topology version.",
		func() float64 { return float64(c.snapshotTopology().Version) })
	return m
}
