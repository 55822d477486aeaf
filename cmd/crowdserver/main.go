// Command crowdserver runs the shared performance database (the role of
// gptune.lbl.gov in the paper): an HTTP API with user registration,
// API-key authentication, access-controlled sample storage, bounded
// concurrency with load shedding, per-request deadlines, and durable
// replicated-log persistence. SIGINT/SIGTERM drain in-flight requests
// and flush state before exit.
//
// The process runs in one of two modes:
//
//   - Node (default): one replica of one shard. Every durable state
//     machine (the document collections and the task pool) sits on an
//     internal/replog segmented log under <data>/logs. A leader (-role leader, the default) accepts writes and
//     streams its logs to the followers named by -replicas; a follower
//     (-role follower) applies the stream, serves bounded-staleness
//     reads, and bounces writes to its leader with 307. A standalone
//     server is simply a shard of one with no replicas.
//
//   - Coordinator (-coordinator): the stateless routing front door. It
//     consistent-hashes tuning problems onto shards and proxies the
//     public API; nodes are introduced statically with -shards or
//     dynamically via POST /api/v1/cluster/join (see -join below).
//
// The API serves Prometheus metrics on /metrics; -debug-addr starts a
// separate pprof + /metrics listener, and -log-format/-log-level shape
// the structured (trace-aware) request logs.
//
// Usage:
//
//	crowdserver -addr :8080 -data /var/lib/gptunecrowd
//	crowdserver -coordinator -addr :8000 -shards 's0=http://n0:8080,http://n1:8080'
//	crowdserver -addr :8080 -shard s0 -advertise http://n0:8080 -replicas http://n1:8080 -join http://coord:8000
//	crowdserver -addr :8081 -shard s0 -role follower -advertise http://n1:8080 -join http://coord:8000
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gptunecrowd/internal/apps"
	"gptunecrowd/internal/cluster"
	"gptunecrowd/internal/crowd"
	"gptunecrowd/internal/obs"
	"gptunecrowd/internal/replog"
	"gptunecrowd/internal/taskpool"
)

// registerAppPolicies declares a validation policy for every built-in
// application so uploads are checked against the real tuning space. The
// performance-model apps measure runtimes, which are strictly positive;
// the synthetic functions legitimately go negative.
func registerAppPolicies(srv *crowd.Server) {
	positive := map[string]bool{"pdgeqrf": true, "nimrod": true, "superlu": true, "hypre": true}
	for _, name := range apps.Names() {
		inst, err := apps.Build(name, apps.Options{})
		if err != nil {
			log.Printf("crowdserver: no policy for %s: %v", name, err)
			continue
		}
		srv.RegisterProblemPolicy(name, crowd.ProblemPolicy{
			Space:                 inst.Problem.ParamSpace,
			RequirePositiveOutput: positive[name],
		})
	}
}

// parseShards parses the -shards topology flag: semicolon-separated
// shards, each "id=leaderURL[,replicaURL...]".
func parseShards(s string) ([]cluster.ShardInfo, error) {
	var out []cluster.ShardInfo
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, urls, ok := strings.Cut(part, "=")
		if !ok || id == "" || urls == "" {
			return nil, fmt.Errorf("bad shard spec %q (want id=leader[,replica...])", part)
		}
		info := cluster.ShardInfo{ID: strings.TrimSpace(id)}
		for i, u := range strings.Split(urls, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			if i == 0 {
				info.Leader = u
			} else {
				info.Replicas = append(info.Replicas, u)
			}
		}
		out = append(out, info)
	}
	return out, nil
}

// joinCoordinator announces this node to the coordinator's topology.
func joinCoordinator(coordURL, shard, advertise, token string, role cluster.Role) error {
	body, err := json.Marshal(map[string]string{
		"shard": shard, "url": advertise, "role": string(role),
	})
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, strings.TrimRight(coordURL, "/")+"/api/v1/cluster/join", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set(cluster.TokenHeader, token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("join %s: HTTP %d", coordURL, resp.StatusCode)
	}
	return nil
}

// serve runs an HTTP server until SIGINT/SIGTERM, then drains and calls
// shutdown hooks.
func serve(ctx context.Context, addr string, handler http.Handler, shutdownTimeout time.Duration, onTick func(), tick time.Duration) error {
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	if onTick != nil {
		go func() {
			t := time.NewTicker(tick)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					onTick()
				}
			}
		}()
	}
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("crowdserver: signal received, draining (up to %s)", shutdownTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("crowdserver: shutdown: %v", err)
	}
	return nil
}

func main() {
	var (
		addr            = flag.String("addr", ":8080", "listen address")
		dataDir         = flag.String("data", "", "directory for durable persistence (empty = in-memory only)")
		interval        = flag.Duration("flush", 30*time.Second, "log compaction interval")
		maxInFlight     = flag.Int("max-inflight", crowd.DefaultMaxInFlight, "max concurrently served requests (excess get HTTP 429)")
		requestTimeout  = flag.Duration("request-timeout", crowd.DefaultRequestTimeout, "per-request deadline")
		shutdownTimeout = flag.Duration("shutdown-timeout", 10*time.Second, "drain deadline on SIGINT/SIGTERM")
		leaseTTL        = flag.Duration("task-lease-ttl", taskpool.DefaultLeaseTTL, "task lease TTL without a heartbeat")
		maxAttempts     = flag.Int("task-max-attempts", taskpool.DefaultMaxAttempts, "lease attempts before a task is dead-lettered")
		admins          = flag.String("admin", "", "comma-separated usernames allowed to list/release quarantined samples (empty = every authenticated user)")
		quiet           = flag.Bool("quiet", false, "disable per-request access logging")
		debugAddr       = flag.String("debug-addr", "", "listen address for the pprof + /metrics debug server (empty = disabled)")
		logFormat       = flag.String("log-format", "text", "structured log format: text or json")
		logLevel        = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")

		// Cluster flags.
		coordinator  = flag.Bool("coordinator", false, "run as the routing coordinator instead of a storage node")
		shardID      = flag.String("shard", "s0", "shard id this node serves")
		role         = flag.String("role", "leader", "node role: leader or follower")
		replicas     = flag.String("replicas", "", "comma-separated follower base URLs this leader replicates to")
		advertise    = flag.String("advertise", "", "base URL other nodes and clients reach this process at (required for -replicas/-join)")
		join         = flag.String("join", "", "coordinator base URL to register this node with")
		clusterToken = flag.String("cluster-token", "", "shared secret for intra-cluster endpoints (apply/promote/join)")
		shardsFlag   = flag.String("shards", "", "coordinator: static topology, 'id=leader[,replica...];id2=...'")

		// Failure detection (coordinator only).
		failover       = flag.String("failover", "auto", "coordinator failover mode: auto (detector promotes a caught-up follower) or manual (operators call /promote)")
		detectInterval = flag.Duration("detect-interval", cluster.DefaultDetectInterval, "coordinator: leader liveness probe cadence")
		detectMisses   = flag.Int("detect-misses", cluster.DefaultDetectMisses, "coordinator: consecutive missed probes before a leader is declared dead")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatalf("crowdserver: %v", err)
	}
	if *logFormat != "text" && *logFormat != "json" {
		log.Fatalf("crowdserver: unknown -log-format %q (want text or json)", *logFormat)
	}
	logger := obs.NewLogger(os.Stderr, obs.LogOptions{Level: level, JSON: *logFormat == "json"})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *coordinator {
		topo := cluster.Topology{Version: 1}
		if *shardsFlag != "" {
			shards, err := parseShards(*shardsFlag)
			if err != nil {
				log.Fatalf("crowdserver: -shards: %v", err)
			}
			topo.Shards = shards
		}
		coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
			Topology: topo,
			Token:    *clusterToken,
			Slog:     logger,
		})
		if err != nil {
			log.Fatalf("crowdserver: coordinator: %v", err)
		}
		if dbg, err := obs.ServeDebug(*debugAddr, coord.Registry(), logger); err != nil {
			log.Fatalf("crowdserver: debug server: %v", err)
		} else if dbg != nil {
			defer dbg.Close()
			log.Printf("crowdserver debug server (pprof + /metrics) on %s", dbg.Addr)
		}
		switch *failover {
		case "auto":
			sup := coord.StartSupervisor(cluster.SupervisorConfig{
				Interval: *detectInterval,
				Misses:   *detectMisses,
			})
			defer sup.Stop()
			log.Printf("crowdserver: automatic failover on (probe every %s, dead after %d misses)",
				*detectInterval, *detectMisses)
		case "manual":
			log.Printf("crowdserver: automatic failover off; promote followers via POST /api/v1/cluster/promote")
		default:
			log.Fatalf("crowdserver: unknown -failover %q (want auto or manual)", *failover)
		}
		log.Printf("crowdserver coordinator listening on %s (%d shards)", *addr, len(topo.Shards))
		if err := serve(ctx, *addr, coord, *shutdownTimeout, nil, 0); err != nil {
			log.Fatalf("crowdserver: %v", err)
		}
		return
	}

	if *role != string(cluster.RoleLeader) && *role != string(cluster.RoleFollower) {
		log.Fatalf("crowdserver: unknown -role %q (want leader or follower)", *role)
	}
	cfg := crowd.Config{
		MaxInFlight:     *maxInFlight,
		RequestTimeout:  *requestTimeout,
		TaskLeaseTTL:    *leaseTTL,
		TaskMaxAttempts: *maxAttempts,
	}
	if *admins != "" {
		for _, u := range strings.Split(*admins, ",") {
			if u = strings.TrimSpace(u); u != "" {
				cfg.AdminUsers = append(cfg.AdminUsers, u)
			}
		}
	}
	if !*quiet {
		cfg.Slog = logger
	}

	nodeCfg := cluster.NodeConfig{
		Shard:     *shardID,
		Leader:    *role == string(cluster.RoleLeader),
		Advertise: *advertise,
		Token:     *clusterToken,
		Crowd:     cfg,
	}
	if *dataDir != "" {
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			log.Fatalf("crowdserver: create data dir: %v", err)
		}
		nodeCfg.DataDir = *dataDir + "/logs"
	}
	node, err := cluster.NewNode(nodeCfg)
	if err != nil {
		log.Fatalf("crowdserver: open node: %v", err)
	}
	defer node.Close()
	srv := node.Server()
	registerAppPolicies(srv)
	node.EachLog(func(name string, j *replog.Journal) {
		if n := j.Machine().Len(); n > 0 {
			log.Printf("loaded %d documents into %s", n, name)
		}
	})

	if dbg, err := obs.ServeDebug(*debugAddr, srv.Registry(), logger); err != nil {
		log.Fatalf("crowdserver: debug server: %v", err)
	} else if dbg != nil {
		defer dbg.Close()
		log.Printf("crowdserver debug server (pprof + /metrics) on %s", dbg.Addr)
	}

	if *replicas != "" {
		if !nodeCfg.Leader {
			log.Fatalf("crowdserver: -replicas is a leader flag")
		}
		for _, u := range strings.Split(*replicas, ",") {
			if u = strings.TrimSpace(u); u != "" {
				node.AttachFollower(u, nil)
				log.Printf("replicating shard %s to %s", *shardID, u)
			}
		}
	}
	if *join != "" {
		if *advertise == "" {
			log.Fatalf("crowdserver: -join requires -advertise")
		}
		if err := joinCoordinator(*join, *shardID, *advertise, *clusterToken, cluster.Role(*role)); err != nil {
			log.Fatalf("crowdserver: %v", err)
		}
		log.Printf("joined coordinator %s as %s of shard %s", *join, *role, *shardID)
	}

	// Lease-expiry sweeper (leader only — followers receive the
	// resulting requeues through the log): crashed workers' tasks are
	// requeued at most half a TTL after their lease lapses.
	go func() {
		t := time.NewTicker(*leaseTTL / 2)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if node.Role() != cluster.RoleLeader {
					continue
				}
				if n := srv.TaskPool().ExpireLeases(); n > 0 {
					log.Printf("crowdserver: requeued %d expired task leases", n)
				}
			}
		}
	}()

	flush := func() {}
	if *dataDir != "" {
		flush = func() {
			if err := node.CompactAll(); err != nil {
				log.Printf("crowdserver: compact: %v", err)
			}
		}
	}

	log.Printf("crowdserver listening on %s (shard %s, role %s, data dir %q, max in-flight %d)",
		*addr, *shardID, *role, *dataDir, *maxInFlight)
	if err := serve(ctx, *addr, node, *shutdownTimeout, flush, *interval); err != nil {
		log.Fatalf("crowdserver: %v", err)
	}
	flush()
	m := srv.Metrics()
	log.Printf("crowdserver: state flushed (%d requests served, %d rejected, %d tasks completed), exiting",
		m.Requests, m.Rejected, m.TaskPool.Completions)
}
