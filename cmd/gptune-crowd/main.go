// Command gptune-crowd tunes one of the built-in applications, with
// optional crowd-database integration driven by a meta-description file
// (Section IV-A of the paper).
//
// Standalone (no crowd):
//
//	gptune-crowd -app pdgeqrf -budget 20
//
// Crowd-tuning: query source datasets from the shared database, run a
// TLA algorithm, and upload the new evaluations (when
// sync_crowd_repo = "yes" in the meta file):
//
//	gptune-crowd -app nimrod -meta meta.json -algorithm "Ensemble(proposed)" -budget 10
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	gptunecrowd "gptunecrowd"
	"gptunecrowd/internal/apps"
	"gptunecrowd/internal/obs"
)

func main() {
	var (
		appName   = flag.String("app", "demo", fmt.Sprintf("application %v", apps.Names()))
		taskJSON  = flag.String("task", "", "task parameters as JSON (default: app-specific)")
		algorithm = flag.String("algorithm", "", "tuning algorithm (default NoTLA, or Ensemble(proposed) with sources)")
		budget    = flag.Int("budget", 20, "number of function evaluations")
		seed      = flag.Int64("seed", 1, "random seed")
		nodes     = flag.Int("nodes", 0, "compute nodes for the app model")
		partition = flag.String("partition", "haswell", "machine partition (haswell or knl)")
		matrix    = flag.String("matrix", "", "matrix for superlu (Si5H12 or H2O)")
		metaPath  = flag.String("meta", "", "meta-description file for crowd integration")
		maxSrc    = flag.Int("max-source-samples", 100, "per-source sample cap for LCM algorithms")
		batch     = flag.Int("batch", 0, "evaluate N proposals per round concurrently")
		logFormat = flag.String("log-format", "text", "structured log format: text or json")
		logLevel  = flag.String("log-level", "warn", "minimum log level: debug, info, warn or error")
		dumpStats = flag.Bool("dump-metrics", false, "print the tuner's Prometheus metrics to stderr after the run")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatal(err)
	}
	if *logFormat != "text" && *logFormat != "json" {
		log.Fatalf("unknown -log-format %q (want text or json)", *logFormat)
	}
	logger := obs.NewLogger(os.Stderr, obs.LogOptions{Level: level, JSON: *logFormat == "json"})
	metrics := gptunecrowd.NewMetrics()

	// Ctrl-C cancels the run cooperatively: the tuner stops at the next
	// cancellation point and reports the best configuration found so far.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx = gptunecrowd.WithTraceID(ctx, gptunecrowd.NewTraceID())

	inst, err := apps.Build(*appName, apps.Options{
		Nodes: *nodes, Partition: *partition, Matrix: *matrix, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	task := inst.DefaultTask
	if *taskJSON != "" {
		task = map[string]interface{}{}
		if err := json.Unmarshal([]byte(*taskJSON), &task); err != nil {
			log.Fatalf("bad -task JSON: %v", err)
		}
	}

	opts := gptunecrowd.TuneOptions{
		Budget:           *budget,
		Seed:             *seed,
		Algorithm:        *algorithm,
		MaxSourceSamples: *maxSrc,
		Metrics:          metrics,
		Logger:           logger,
		OnSample: func(i int, s gptunecrowd.Sample) {
			if s.Failed {
				fmt.Printf("eval %2d [%s]: FAILED (%s)\n", i+1, s.Proposer, s.Err)
				return
			}
			fmt.Printf("eval %2d [%s]: y = %.6g  %v\n", i+1, s.Proposer, s.Y, s.Params)
		},
	}

	var client *gptunecrowd.CrowdClient
	var desc *gptunecrowd.MetaDescription
	if *metaPath != "" {
		desc, err = gptunecrowd.LoadMeta(*metaPath)
		if err != nil {
			log.Fatal(err)
		}
		client = gptunecrowd.ConnectWith(gptunecrowd.ConnectOptions{URL: desc.CrowdRepoURL, APIKey: desc.APIKey, Logger: logger})
		evals, err := gptunecrowd.QueryFunctionEvaluationsContext(ctx, client, desc)
		if err != nil {
			log.Fatalf("crowd query: %v", err)
		}
		fmt.Printf("downloaded %d crowd samples for %q\n", len(evals), desc.TuningProblemName)
		if len(evals) > 0 {
			sources, err := gptunecrowd.SourcesFromEvals(inst.Problem.ParamSpace, evals)
			if err != nil {
				log.Fatalf("building sources: %v", err)
			}
			fmt.Printf("grouped into %d source task(s)\n", len(sources))
			opts.Sources = sources
		}
	}

	fmt.Printf("tuning %s (%s), budget %d\n", *appName, inst.Description, *budget)
	res, err := gptunecrowd.TuneBatchContext(ctx, inst.Problem, task, gptunecrowd.BatchTuneOptions{
		TuneOptions: opts, BatchSize: max(*batch, 1),
	})
	if err != nil {
		if errors.Is(err, context.Canceled) && res != nil {
			fmt.Printf("\ninterrupted after %d evaluation(s); reporting the best so far\n", res.History.Len())
		} else {
			log.Fatal(err)
		}
	}
	fmt.Printf("\nalgorithm: %s\nbest y: %.6g\nbest configuration: %v\n",
		res.Algorithm, res.BestY, res.BestParams)
	if *dumpStats {
		if werr := metrics.WritePrometheus(os.Stderr); werr != nil {
			log.Printf("dump metrics: %v", werr)
		}
	}

	if desc != nil && desc.Sync() {
		machineCfg, err := desc.ResolveMachine(os.Getenv)
		if err != nil {
			// Not running under Slurm: fall back to the manual fields.
			machineCfg = gptunecrowd.MachineConfiguration{
				MachineName: desc.Machine.MachineName,
				Partition:   desc.Machine.Partition,
				Nodes:       desc.Machine.Nodes,
			}
		}
		software, err := desc.ResolveSoftware(os.ReadFile)
		if err != nil {
			log.Printf("software auto-parse failed (continuing without): %v", err)
		}
		// Upload even after an interrupt (the partial history is still
		// valuable), under the run's trace ID so the server logs connect
		// the upload to this tuning run.
		upCtx := gptunecrowd.WithTraceID(context.Background(), gptunecrowd.TraceIDFrom(ctx))
		ids, err := gptunecrowd.UploadHistoryContext(upCtx, client, desc, task, res.History, machineCfg, software, "public")
		if err != nil {
			log.Fatalf("crowd upload: %v", err)
		}
		fmt.Printf("uploaded %d evaluations to the shared database\n", len(ids))
	}
}
