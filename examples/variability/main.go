// Variability detection and mitigation (the paper's stated future
// work): tune a deliberately noisy PDGEQRF model, inspect the
// variability report, and compare plain tuning against the robust
// repeat-and-aggregate evaluator — plus a demonstration of batched
// parallel evaluation.
package main

import (
	"context"
	"fmt"
	"log"

	gptunecrowd "gptunecrowd"
	"gptunecrowd/internal/apps/scalapack"
	"gptunecrowd/internal/machine"
)

func main() {
	// A noisy machine: 15% log-normal run-to-run measurement noise.
	app := scalapack.New(machine.CoriHaswell(8))
	app.NoiseSigma = 0.15
	app.PerCallNoise = true
	problem := app.Problem()
	task := map[string]interface{}{"m": 10000, "n": 10000}

	// --- Plain tuning.
	plain, err := gptunecrowd.Tune(problem, task, gptunecrowd.TuneOptions{Budget: 12, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plain tuning best (noisy measurement): %.4f s\n", plain.BestY)

	// --- Robust tuning: 3 measurements per configuration, median.
	robustEval := gptunecrowd.NewRobustEvaluator(problem.Evaluator, 3)
	robustProblem := &gptunecrowd.Problem{
		Name:       problem.Name + " (robust)",
		TaskSpace:  problem.TaskSpace,
		ParamSpace: problem.ParamSpace,
		Output:     problem.Output,
		Evaluator:  robustEval,
	}
	robust, err := gptunecrowd.Tune(robustProblem, task, gptunecrowd.TuneOptions{Budget: 12, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("robust tuning best (median of 3):      %.4f s  (%d total application runs)\n",
		robust.BestY, robustEval.TotalRuns)

	// --- Score both winners by their TRUE (noise-free) runtime.
	clean := scalapack.New(machine.CoriHaswell(8))
	clean.NoiseSigma = 0
	yPlain, _ := clean.Evaluate(task, plain.BestParams)
	yRobust, _ := clean.Evaluate(task, robust.BestParams)
	fmt.Printf("\ntrue runtime of plain winner:  %.4f s\n", yPlain)
	fmt.Printf("true runtime of robust winner: %.4f s\n", yRobust)

	// --- Variability report: re-measure the two winners several times
	// and quantify the machine's run-to-run noise.
	probe := &gptunecrowd.History{}
	for i := 0; i < 6; i++ {
		for _, cfg := range []map[string]interface{}{plain.BestParams, robust.BestParams} {
			y, err := problem.Evaluator.Evaluate(task, cfg)
			if err != nil {
				continue
			}
			probe.Append(gptunecrowd.Sample{Params: cfg, Y: y})
		}
	}
	rep := gptunecrowd.AnalyzeVariability(probe, 0.05)
	fmt.Printf("\nvariability report over re-measured winners: meanCV=%.3f, %d configs, %d flagged as noisy\n",
		rep.MeanCV, len(rep.PerConfig), len(rep.Flagged))
	for _, cs := range rep.Flagged {
		fmt.Printf("  flagged: n=%d mean=%.4f cv=%.3f range=[%.4f, %.4f]\n", cs.N, cs.Mean, cs.CV, cs.Min, cs.Max)
	}

	// --- Batched parallel tuning: 4 proposals per round, evaluated
	// concurrently (useful when the allocation can fit several trials).
	batched, err := gptunecrowd.TuneBatchContext(context.Background(), problem, task, gptunecrowd.BatchTuneOptions{
		TuneOptions: gptunecrowd.TuneOptions{Budget: 12, Seed: 2},
		BatchSize:   4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbatched tuning (4-way constant liar) best: %.4f s\n", batched.BestY)
}
