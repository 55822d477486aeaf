package main

import (
	"encoding/json"
	"time"
)

// runSeconds is how long one driver run measures. With three set-ups
// and the output checks, runs take 16.5 – 19 s, and 26 s on
// suggest_hot_n256 whose set-up is a 2 – 5 s fit; that keeps the
// driver's 4 + 22 × 6 runs and two builds inside its 3420 s.
const runSeconds = 16

// scale sizes every workload. full is what BENCHMARK.json measures;
// smoke is the same code at toy sizes, for the package's own tests.
type scale struct {
	name string

	hotSmall, hotLarge int           // history sizes of suggest_hot_n64 / _n256 and of the sized probes
	fitTiny            int           // history size of the cold-task probes
	uploadEvery        time.Duration // period of the hot workloads' upload timer

	cycleTasks, cyclePerTask, cycleRounds, cycleBatch int

	mixSamples, mixProblems, mixTasks, mixHot int
	shards, followers                         int

	tuneSource, tuneBudget, tuneRounds int

	setupReps int // set-ups per untraced run: setup_s is their median, and each can carry a window
	probeReps int // repetitions behind each probe's median
}

var fullScale = scale{
	name:     "full",
	hotSmall: 64, hotLarge: 256, fitTiny: 16,
	uploadEvery: 500 * time.Millisecond,
	cycleTasks:  72, cyclePerTask: 8, cycleRounds: 3, cycleBatch: 4,
	mixSamples: 1000, mixProblems: 4, mixTasks: 8, mixHot: 64,
	shards: 3, followers: 1,
	tuneSource: 100, tuneBudget: 10, tuneRounds: 8,
	setupReps: 3, probeReps: 5,
}

var smokeScale = scale{
	name:     "smoke",
	hotSmall: 16, hotLarge: 32, fitTiny: 8,
	uploadEvery: 100 * time.Millisecond,
	cycleTasks:  8, cyclePerTask: 6, cycleRounds: 1, cycleBatch: 2,
	mixSamples: 64, mixProblems: 2, mixTasks: 2, mixHot: 16,
	shards: 2, followers: 1,
	tuneSource: 20, tuneBudget: 4, tuneRounds: 1,
	setupReps: 1, probeReps: 1,
}

// workloads lists the six traffic shapes by their normative names.
var workloads = []workload{
	{
		name: "suggest_hot_n64", windows: 3,
		why:   "warm-cache suggest at a 64-sample history: HTTP, JSON and cache bookkeeping are a visible share beside the search",
		setup: func(sc scale, seed int64) (fixture, error) { return setupHot(sc, seed, sc.hotSmall) },
	},
	{
		name: "suggest_hot_n256", windows: 3,
		why:   "same at 256 samples: search is 25 ms, so predict, kernel and Cholesky dominate and HTTP is under 5 %; numeric work shows here, HTTP work must not",
		setup: func(sc scale, seed int64) (fixture, error) { return setupHot(sc, seed, sc.hotLarge) },
	},
	{
		name: "session_cycle", windows: 1,
		why:   "72 tasks over a 64-entry model cache, batch-4 suggest then report back: every visit is a miss, a full fit and a write",
		setup: setupCycle,
	},
	{
		name: "tune_tla", windows: 1,
		why:   "library only: Tune on PDGEQRF with one source task, NoTLA against three transfer tuners; LCM fits do the work, serving does none",
		setup: setupTune,
	},
	{
		name: "repo_mixed", windows: 3,
		why:   "one durable node as a database at 1000 documents: uploads beside filtered queries, listings and suggests",
		setup: setupMixed(deployNode),
	},
	{
		name: "cluster_mixed", windows: 3,
		why:   "the identical operation sequence through a coordinator and 3 shards with followers: isolates cluster overhead against sharding benefit",
		setup: setupMixed(deployCluster),
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef declares one metric of the benchmark.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// moves says which end-to-end metric a layer metric should move and
	// where; on every other workload the prediction is no change. It is
	// documentation and stays out of BENCHMARK.json.
	moves string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, so each is defined for all six:
//   - ops_per_s: completed closed-loop operations ÷ measured window: the
//     suggest request on the hot workloads, the whole visit on
//     session_cycle, any operation of the mix, one tuning iteration
//     (propose, then evaluate) on tune_tla.
//   - p50_ms, p95_ms: latency of the primary operations among those —
//     all of them, except that the mixes sample their reads (query,
//     listing, suggest) and tune_tla the iterations of Multitask(TS).
//     Failures are excluded from the sample and counted in the result's
//     failed/attempted.
//   - quality_y: how good the proposals are — on the serving workloads
//     1 + 10 × the mean squared distance of served proposals from their
//     task's optimum, on tune_tla the mean best-at-budget objective of
//     the source-fed tuners — so speed bought by proposing worse points
//     shows.
//   - setup_s: wall time from the start of the workload to its first
//     timed operation (seeding, warm-up fits, cluster start), median of
//     several set-ups.
//
// Bounds are fractions of the parent's median. The timing bounds are as
// wide as the driver allows because this box drifts: identical runs a
// few minutes apart differ by up to 35 % in throughput (README.md has
// the measured spreads).
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "quality_y", Unit: "y", Better: "lower", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of single layers, reported by the traced
// pass. Probe metrics are measured the same way in every workload's
// traced run; counter metrics are what the workload's own window moved
// and read 0 where the workload does not exercise the layer.
var perLayer = []metricDef{
	// crowd: HTTP, middleware, JSON.
	{Name: "crowd.http_roundtrip_us", Unit: "us", Better: "lower", moves: "p50_ms, ops_per_s on suggest_hot_n64"},
	{Name: "crowd.suggest_handler_self_us", Unit: "us", Better: "lower", moves: "p50_ms, ops_per_s on suggest_hot_n64"},
	{Name: "crowd.upload_ms_per_sample", Unit: "ms", Better: "lower", moves: "p95_ms on repo_mixed; ops_per_s on session_cycle"},
	{Name: "crowd.query_ms", Unit: "ms", Better: "lower", moves: "p95_ms on repo_mixed"},
	{Name: "crowd.problems_ms", Unit: "ms", Better: "lower", moves: "p95_ms on repo_mixed"},
	{Name: "crowd.shed_total", Unit: "count", Better: "lower", moves: "failed on every serving workload"},
	// suggest: model cache, sync, liars.
	{Name: "suggest.hit_us_n64", Unit: "us", Better: "lower", moves: "p50_ms on suggest_hot_n64"},
	{Name: "suggest.hit_us_n256", Unit: "us", Better: "lower", moves: "p50_ms on suggest_hot_n256"},
	{Name: "suggest.self_us", Unit: "us", Better: "lower", moves: "p50_ms on suggest_hot_n64"},
	{Name: "suggest.miss_ms", Unit: "ms", Better: "lower", moves: "ops_per_s on session_cycle"},
	{Name: "suggest.batch4_ms", Unit: "ms", Better: "lower", moves: "ops_per_s on session_cycle"},
	{Name: "suggest.cache_hit_ratio", Unit: "ratio", Better: "higher", moves: "p50_ms on both hot workloads"},
	{Name: "suggest.full_fits", Unit: "count", Better: "lower", moves: "ops_per_s on session_cycle"},
	{Name: "suggest.incremental_observes", Unit: "count", Better: "higher", moves: "p95_ms on both hot workloads"},
	{Name: "suggest.evictions", Unit: "count", Better: "lower", moves: "ops_per_s on session_cycle"},
	{Name: "suggest.stale_waits", Unit: "count", Better: "lower", moves: "p95_ms on both hot workloads"},
	{Name: "suggest.liars_retired", Unit: "count", Better: "higher", moves: "quality_y on session_cycle"},
	{Name: "suggest.liars_expired", Unit: "count", Better: "lower", moves: "must stay near 0 on session_cycle"},
	{Name: "suggest.model_lag_p95_samples", Unit: "count", Better: "lower", moves: "quality_y on both hot workloads"},
	// core: acquisition search and the tuning session.
	{Name: "core.search_us_n64", Unit: "us", Better: "lower", moves: "p50_ms on suggest_hot_n64"},
	{Name: "core.search_us_n256", Unit: "us", Better: "lower", moves: "p50_ms on suggest_hot_n256"},
	{Name: "core.search_self_us", Unit: "us", Better: "lower", moves: "p50_ms on suggest_hot_n64"},
	{Name: "core.search_predict_calls", Unit: "count", Better: "lower", moves: "p50_ms on both hot workloads"},
	{Name: "core.lhs_us", Unit: "us", Better: "lower", moves: "p50_ms on suggest_hot_n64"},
	{Name: "core.session_step_ms", Unit: "ms", Better: "lower", moves: "ops_per_s on tune_tla"},
	{Name: "core.session_self_ms", Unit: "ms", Better: "lower", moves: "ops_per_s on tune_tla"},
	// gp.
	{Name: "gp.fit_ms_n16", Unit: "ms", Better: "lower", moves: "ops_per_s on session_cycle"},
	{Name: "gp.fit_ms_n64", Unit: "ms", Better: "lower", moves: "setup_s on suggest_hot_n64, repo_mixed, cluster_mixed"},
	{Name: "gp.fit_ms_n256", Unit: "ms", Better: "lower", moves: "setup_s on suggest_hot_n256"},
	{Name: "gp.observe_us_n64", Unit: "us", Better: "lower", moves: "suggest.model_lag_p95_samples"},
	{Name: "gp.observe_us_n256", Unit: "us", Better: "lower", moves: "suggest.model_lag_p95_samples"},
	{Name: "gp.clone_us_n64", Unit: "us", Better: "lower", moves: "ops_per_s on session_cycle"},
	{Name: "gp.clone_us_n256", Unit: "us", Better: "lower", moves: "p95_ms on suggest_hot_n256"},
	{Name: "gp.predict_us_per_point_n64", Unit: "us", Better: "lower", moves: "p50_ms on suggest_hot_n64"},
	{Name: "gp.predict_us_per_point_n256", Unit: "us", Better: "lower", moves: "p50_ms on suggest_hot_n256"},
	{Name: "gp.predict_share", Unit: "ratio", Better: "lower", moves: "p50_ms on suggest_hot_n256"},
	// kernel, linalg: reached through gp.
	{Name: "kernel.matrix_ms_n256", Unit: "ms", Better: "lower", moves: "gp.fit_ms_n256"},
	{Name: "kernel.matrix_grads_ms_n256", Unit: "ms", Better: "lower", moves: "gp.fit_ms_n256"},
	{Name: "kernel.cross_us_per_point_n256", Unit: "us", Better: "lower", moves: "gp.predict_us_per_point_n256"},
	{Name: "linalg.cholesky_factor_ms_n256", Unit: "ms", Better: "lower", moves: "gp.fit_ms_n256"},
	{Name: "linalg.cholesky_gflops_n256", Unit: "gflop/s", Better: "higher", moves: "gp.fit_ms_n256 (computed n^3/3 flops)"},
	{Name: "linalg.cholesky_append_us_n256", Unit: "us", Better: "lower", moves: "gp.observe_us_n256"},
	{Name: "linalg.solve_vec_us_n256", Unit: "us", Better: "lower", moves: "gp.observe_us_n256, gp.predict_us_per_point_n256"},
	// lcm, tla, surrogate: tune_tla only.
	{Name: "lcm.fit_ms", Unit: "ms", Better: "lower", moves: "ops_per_s, p50_ms on tune_tla"},
	{Name: "lcm.predict_us_per_point", Unit: "us", Better: "lower", moves: "ops_per_s on tune_tla"},
	{Name: "tla.multitask_propose_ms", Unit: "ms", Better: "lower", moves: "p95_ms on tune_tla"},
	{Name: "tla.ensemble_propose_ms", Unit: "ms", Better: "lower", moves: "p50_ms on tune_tla"},
	{Name: "surrogate.pool_propose_ms", Unit: "ms", Better: "lower", moves: "p50_ms on tune_tla"},
	// historydb.
	{Name: "historydb.find_all_ms", Unit: "ms", Better: "lower", moves: "p95_ms on repo_mixed, cluster_mixed (uploads, listings)"},
	{Name: "historydb.find_filtered_ms", Unit: "ms", Better: "lower", moves: "p95_ms on repo_mixed; suggest.miss_ms"},
	{Name: "historydb.insert_many_us_per_doc", Unit: "us", Better: "lower", moves: "setup_s on repo_mixed, session_cycle"},
	// replog.
	{Name: "replog.append_us", Unit: "us", Better: "lower", moves: "op.upload_p95_ms on repo_mixed, cluster_mixed"},
	{Name: "replog.append_mem_us", Unit: "us", Better: "lower", moves: "op.upload_p95_ms on repo_mixed, cluster_mixed"},
	{Name: "replog.appends_per_upload", Unit: "count", Better: "lower", moves: "op.upload_p95_ms on repo_mixed, cluster_mixed"},
	// cluster.
	{Name: "cluster.coordinator_hop_us", Unit: "us", Better: "lower", moves: "op.suggest_p95_ms on cluster_mixed only"},
	{Name: "cluster.commit_barrier_ms", Unit: "ms", Better: "lower", moves: "op.upload_p95_ms on cluster_mixed only"},
	{Name: "cluster.leader_redirects", Unit: "count", Better: "lower", moves: "p95_ms on cluster_mixed only"},
	// Per operation type of the workload's own window.
	{Name: "op.upload_p95_ms", Unit: "ms", Better: "lower", moves: "p95_ms on repo_mixed, cluster_mixed"},
	{Name: "op.query_p95_ms", Unit: "ms", Better: "lower", moves: "p95_ms on repo_mixed, cluster_mixed"},
	{Name: "op.suggest_p95_ms", Unit: "ms", Better: "lower", moves: "p95_ms on repo_mixed, cluster_mixed"},
	// tune_tla's own window.
	{Name: "tune.wall_s", Unit: "s", Better: "lower", moves: "ops_per_s on tune_tla"},
	{Name: "tune.best_y_mean", Unit: "y", Better: "lower", moves: "quality_y on tune_tla"},
	{Name: "tune.tla_speedup", Unit: "ratio", Better: "higher", moves: "the paper's headline; checked >= 1"},
	// The ladder's ledger.
	{Name: "ledger.unattributed_ratio_n64", Unit: "ratio", Better: "lower", moves: "a layer of suggest_hot_n64 is unmeasured"},
	{Name: "ledger.unattributed_ratio_n256", Unit: "ratio", Better: "lower", moves: "a layer of suggest_hot_n256 is unmeasured"},
	{Name: "ledger.replay_agreement", Unit: "ratio", Better: "higher", moves: "bench-built replay / server's own Service.Suggest; representative within 0.9 .. 1.1"},
	// Process diagnostics: deliberately not end-to-end, so removing a
	// sync.Pool that buys no latency is allowed.
	{Name: "process.allocs_per_op", Unit: "count", Better: "lower", moves: "diagnostic"},
	{Name: "process.cpu_ms_per_op", Unit: "ms", Better: "lower", moves: "diagnostic"},
	{Name: "process.gc_pause_ms_total", Unit: "ms", Better: "lower", moves: "diagnostic"},
	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower", moves: "diagnostic"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher", moves: "traced / untraced ops_per_s"},
}

// manifest is BENCHMARK.json: `bench -manifest` prints it, and the
// package's test holds the committed file to it.
func manifest() ([]byte, error) {
	type namedWhy struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []namedWhy  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layerDef  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, namedWhy{w.name, w.why})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerDef{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
