// Command sensitivity runs a Sobol' parameter sensitivity analysis for
// a built-in application (the QuerySensitivityAnalysis workflow of
// Section IV-B, reproducing Tables IV and V).
//
//	sensitivity -app superlu -samples 500       # surrogate-based, as in the paper
//	sensitivity -app hypre -direct -n 1024      # directly on the model
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"

	gptunecrowd "gptunecrowd"
	"gptunecrowd/internal/apps"
	"gptunecrowd/internal/experiments"
	"gptunecrowd/internal/sensitivity"
	"gptunecrowd/internal/surrogate"
)

func main() {
	var (
		appName   = flag.String("app", "hypre", fmt.Sprintf("application %v", apps.Names()))
		taskJSON  = flag.String("task", "", "task parameters as JSON (default: app-specific)")
		samples   = flag.Int("samples", 500, "pre-collected samples for the surrogate")
		direct    = flag.Bool("direct", false, "analyze the model directly instead of a fitted surrogate")
		n         = flag.Int("n", 1024, "Saltelli base samples")
		seed      = flag.Int64("seed", 1, "random seed")
		nodes     = flag.Int("nodes", 0, "compute nodes for the app model")
		partition = flag.String("partition", "haswell", "machine partition")
		matrix    = flag.String("matrix", "", "matrix for superlu")
		threshold = flag.Float64("st-threshold", 0.1, "ST cutoff for the reduced-space suggestion")
	)
	flag.Parse()

	inst, err := apps.Build(*appName, apps.Options{Nodes: *nodes, Partition: *partition, Matrix: *matrix, Seed: *seed})
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
	ps := inst.Problem.ParamSpace

	var res *gptunecrowd.SensitivityResult
	if *direct {
		res, err = sensitivity.AnalyzeSpace(func(cfg map[string]interface{}) float64 {
			y, err := inst.Problem.Evaluator.Evaluate(task, cfg)
			if err != nil {
				return math.NaN()
			}
			return y
		}, ps, sensitivity.Options{N: *n, Seed: *seed})
	} else {
		source, cerr := experiments.CollectSourceSamples("sens", inst.Problem, task, *samples, *seed)
		if cerr != nil {
			log.Fatal(cerr)
		}
		fmt.Printf("collected %d samples; fitting surrogate...\n", source.Len())
		res, err = surrogate.Sensitivity(ps, source.X, source.Y, *seed, sensitivity.Options{N: *n, Seed: *seed})
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Sobol sensitivity of %s (task %v):\n", *appName, task)
	fmt.Print(res.String())
	fmt.Printf("\nsuggested reduced space (ST >= %.2f): %v\n", *threshold, res.MostSensitive(*threshold))
}
