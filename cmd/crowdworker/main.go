// Command crowdworker is the volunteer daemon of the crowd-tuning
// workflow: it registers with (or authenticates to) a crowdserver,
// leases tuning tasks from the shared pool, runs them against the
// built-in application simulators, uploads the measured samples, and
// reports results. SIGINT/SIGTERM drain gracefully: the task in flight
// stops after its current evaluation, checkpoints, and is handed back
// to the pool so another worker resumes it where this one stopped.
//
// Usage:
//
//	crowdworker -server http://localhost:8080 -register alice
//	crowdworker -server http://localhost:8080 -api-key KEY -machine-name cori -partition knl
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gptunecrowd/internal/crowd"
	"gptunecrowd/internal/obs"
	"gptunecrowd/internal/taskpool"
	"gptunecrowd/internal/worker"
)

func main() {
	var (
		server      = flag.String("server", "http://localhost:8080", "crowdserver base URL")
		apiKey      = flag.String("api-key", "", "API key (or use -register)")
		register    = flag.String("register", "", "register this username and use the returned key")
		name        = flag.String("name", "", "worker name in lease records (default: hostname)")
		poll        = flag.Duration("poll", 2*time.Second, "sleep between lease attempts when the pool is empty")
		machineName = flag.String("machine-name", "", "machine tag matched against task constraints")
		partition   = flag.String("partition", "", "partition tag matched against task constraints")
		access      = flag.String("accessibility", "public", "accessibility of uploaded samples")
		evalTimeout = flag.Duration("eval-timeout", 0, "abort a single function evaluation after this long and impute a penalty (0 = no timeout)")
		quiet       = flag.Bool("quiet", false, "disable progress logging")
		debugAddr   = flag.String("debug-addr", "", "listen address for the pprof + /metrics debug server (empty = disabled)")
		logFormat   = flag.String("log-format", "text", "structured log format: text or json")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatalf("crowdworker: %v", err)
	}
	if *logFormat != "text" && *logFormat != "json" {
		log.Fatalf("crowdworker: unknown -log-format %q (want text or json)", *logFormat)
	}
	logger := obs.NewLogger(os.Stderr, obs.LogOptions{Level: level, JSON: *logFormat == "json"})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	c := crowd.NewClient(*server, *apiKey)
	c.Logger = logger
	if *register != "" {
		if _, err := c.RegisterContext(ctx, *register, ""); err != nil {
			log.Fatalf("crowdworker: register %q: %v", *register, err)
		}
		log.Printf("crowdworker: registered as %q", *register)
	}
	if c.APIKey == "" {
		log.Fatal("crowdworker: need -api-key or -register")
	}
	if *name == "" {
		if h, err := os.Hostname(); err == nil {
			*name = h
		} else {
			*name = "worker"
		}
	}

	reg := obs.NewRegistry()
	opts := worker.Options{
		Client:        c,
		Name:          *name,
		Machine:       taskpool.MachineConstraint{MachineName: *machineName, Partition: *partition},
		PollInterval:  *poll,
		Accessibility: *access,
		EvalTimeout:   *evalTimeout,
		Registry:      reg,
	}
	if !*quiet {
		opts.Slog = logger
	}
	w, err := worker.New(opts)
	if err != nil {
		log.Fatalf("crowdworker: %v", err)
	}

	if dbg, err := obs.ServeDebug(*debugAddr, reg, logger); err != nil {
		log.Fatalf("crowdworker: debug server: %v", err)
	} else if dbg != nil {
		defer dbg.Close()
		log.Printf("crowdworker debug server (pprof + /metrics) on %s", dbg.Addr)
	}

	log.Printf("crowdworker %s polling %s (machine=%q partition=%q)", *name, *server, *machineName, *partition)
	w.Run(ctx)

	st := w.Stats()
	log.Printf("crowdworker %s draining: %d completed, %d suspended, %d failed, %d evaluations (%d panics recovered, %d timeouts, %d imputed)",
		*name, st.Completed, st.Suspended, st.Failed, st.Evals, st.PanicsRecovered, st.Timeouts, st.Imputed)
}
