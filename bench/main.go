// Command bench is the repository's benchmark: six workloads over the
// serving path, the repository and the tuner, measured end to end with
// tracing off, and layer by layer in a separate traced pass.
//
//	bench -workload W -seed N -seconds S -trace 0|1   one run, one JSON result line (the driver's contract)
//	bench                                             every workload, untraced then traced, into -out
//	bench -aa                                         the untraced set twice; fails if the two disagree beyond a bound
//	bench -manifest                                   print BENCHMARK.json
//
// All load comes from this one process — 2 closed-loop client
// goroutines on 2 connections, servers in-process behind httptest — and
// the program under test only ever sees inputs generated from -seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload and end with a JSON result line (empty: all of them)")
		seed     = flag.Int64("seed", 9, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", runSeconds, "measured seconds per run, shared by the run's windows")
		traced   = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		traceOut = flag.String("trace-out", "", "span file of a traced pass (default .bench_build/trace/<workload>.json)")
		scaleTo  = flag.String("scale", "full", "full, or smoke for toy sizes")
		aa       = flag.Bool("aa", false, "run the untraced set twice and compare the two against each metric's bound")
		out      = flag.String("out", filepath.Join("bench", "baseline.json"), "results file written when every workload runs")
		print    = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	err := func() error {
		if *print {
			b, err := manifest()
			if err != nil {
				return err
			}
			_, err = os.Stdout.Write(b)
			return err
		}
		sc, ok := map[string]scale{"full": fullScale, "smoke": smokeScale}[*scaleTo]
		if !ok {
			return fmt.Errorf("unknown -scale %q (want full or smoke)", *scaleTo)
		}
		if *seconds <= 0 || (*traced != 0 && *traced != 1) {
			return fmt.Errorf("want -seconds > 0 and -trace 0 or 1")
		}
		env := captureEnvironment(*seed)
		pathFor := func(w string) string {
			if *traceOut != "" {
				return *traceOut
			}
			return filepath.Join(".bench_build", "trace", w+".json")
		}
		switch {
		case *aa:
			return runAA(sc, *seed, *seconds)
		case *name == "":
			return runAll(sc, *seed, *seconds, pathFor, *out, env)
		}
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		return runOne(w, sc, *seed, *seconds, *traced == 1, pathFor(w.name), env)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne is the driver's contract: one pass over one workload, every
// metric printed by name, then the result as the last line of standard
// output.
func runOne(w workload, sc scale, seed int64, seconds float64, traced bool, traceOut string, env environment) error {
	var o *outcome
	var err error
	if traced {
		o, err = runTraced(w, sc, seed, seconds, traceOut, env)
	} else {
		o, err = runUntraced(w, sc, seed, seconds)
	}
	if err != nil {
		return err
	}
	report(w.name, o)
	line, err := json.Marshal(o)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return o.err(w.name)
}

// report prints every metric of a run by name, with its unit.
func report(workload string, o *outcome) {
	names := make([]string, 0, len(o.Metrics))
	for n := range o.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("== %s: attempted %d, failed %d (fail_ratio %.5f), %d latency samples, %d beyond p95\n",
		workload, o.Attempted, o.Failed, ratio(float64(o.Failed), float64(o.Attempted)), o.samples, beyond(o.samples, 0.95))
	if o.firstErr != nil {
		fmt.Printf("   first failure: %v\n", o.firstErr)
	}
	for _, n := range names {
		fmt.Printf("   %-36s %14.4f %s\n", n, o.Metrics[n].Value, o.Metrics[n].Unit)
	}
	if agree, ok := o.Metrics["ledger.replay_agreement"]; ok {
		ledgerVerdict(o, agree.Value)
	}
}

// ledgerVerdict closes the traced pass: the replays represent the
// server when a benchmark-built service costs what the server's own
// does (within 10 %), and a ladder is fully measured when its named
// leaves account for at least 90 % of the client's time; a shortfall
// names the unmeasured share.
func ledgerVerdict(o *outcome, agreement float64) {
	verdict := "representative"
	if agreement < 0.9 || agreement > 1.1 {
		verdict = "NOT representative: replayed rungs do not cost what the server's do"
	}
	fmt.Printf("   ledger: replay/server = %.3f, %s\n", agreement, verdict)
	for _, size := range []string{"n64", "n256"} {
		u := o.Metrics["ledger.unattributed_ratio_"+size].Value
		verdict = "closed"
		if u > 0.10 {
			verdict = fmt.Sprintf("OPEN: %.0f %% of the client's time is in no measured layer", 100*u)
		}
		fmt.Printf("   ledger %s: unattributed %.3f, %s\n", size, u, verdict)
	}
}

// results is the file a full run writes: the numbers with the
// environment that produced them, so any entry can be replayed.
type results struct {
	Environment environment         `json:"environment"`
	Scale       string              `json:"scale"`
	Seconds     float64             `json:"seconds"`
	Workloads   map[string]*entries `json:"workloads"`
}

type entries struct {
	EndToEnd *outcome `json:"end_to_end"`
	PerLayer *outcome `json:"per_layer"`
}

// runAll runs every workload untraced for the end-to-end metrics, then
// traced for the per-layer ledger, and records both.
func runAll(sc scale, seed int64, seconds float64, pathFor func(string) string, out string, env environment) error {
	res := results{Environment: env, Scale: sc.name, Seconds: seconds, Workloads: make(map[string]*entries)}
	var bad error
	for _, w := range workloads {
		e := &entries{}
		var err error
		if e.EndToEnd, err = runUntraced(w, sc, seed, seconds); err != nil {
			return err
		}
		report(w.name, e.EndToEnd)
		if e.PerLayer, err = runTraced(w, sc, seed, seconds, pathFor(w.name), env); err != nil {
			return err
		}
		report(w.name+" (traced)", e.PerLayer)
		for _, o := range []*outcome{e.EndToEnd, e.PerLayer} {
			if bad == nil {
				bad = o.err(w.name)
			}
		}
		res.Workloads[w.name] = e
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return bad
}

// runAA runs the untraced set twice on the same build and prints, per
// workload and end-to-end metric, both values, how far the second is
// from the first, and the metric's bound; any difference beyond its
// bound is an error. quality_y on tune_tla comes from fixed work on
// one goroutine and must agree exactly.
func runAA(sc scale, seed int64, seconds float64) error {
	var exceeded []string
	for _, w := range workloads {
		a, err := runUntraced(w, sc, seed, seconds)
		if err != nil {
			return err
		}
		b, err := runUntraced(w, sc, seed, seconds)
		if err != nil {
			return err
		}
		fmt.Printf("== %s\n", w.name)
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			diff := math.Abs(vb-va) / math.Abs(va)
			bound := d.Bound
			if w.name == "tune_tla" && d.Name == "quality_y" {
				bound = 0
			}
			verdict := "ok"
			if diff > bound {
				verdict = "EXCEEDS"
				exceeded = append(exceeded, w.name+"/"+d.Name)
			}
			fmt.Printf("   %-12s %14.4f %14.4f %-6s diff %6.2f%%  bound %5.1f%%  %s\n",
				d.Name, va, vb, d.Unit, 100*diff, 100*bound, verdict)
		}
		if !a.Correct || !b.Correct {
			exceeded = append(exceeded, w.name+"/correct")
		}
	}
	if len(exceeded) > 0 {
		return fmt.Errorf("A/A runs disagree beyond the bound on %v", exceeded)
	}
	return nil
}
