// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp fig3a              # one experiment, quick scale
//	experiments -exp fig5c -scale paper # full paper-sized run
//	experiments -exp all                # everything (quick scale)
//	experiments -exp fig4a -scale paper -repeats 20 # paper sizes, 20 seeds
//
// Experiment ids: table1 table2 table3 table4 table5,
// fig3a…fig3f, fig4a fig4b, fig5a fig5b fig5c, fig6 fig7.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gptunecrowd/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (or \"all\")")
		scale   = flag.String("scale", "quick", "\"quick\" or \"paper\"")
		seed    = flag.Int64("seed", 1, "base random seed")
		repeats = flag.Int("repeats", 0, "tuning repeats of every figure; 0 keeps the scale's count (-scale paper: each figure's paper count, e.g. 3 for fig4/fig5)")
		budget  = flag.Int("budget", 0, "evaluations per tuning run of every figure; 0 keeps the scale's count (-scale paper: each figure's paper count, e.g. 10 for fig4/fig5)")
	)
	flag.Parse()

	sc := experiments.QuickScale
	if *scale == "paper" {
		sc = experiments.PaperScale
	} else if *scale != "quick" {
		fmt.Fprintf(os.Stderr, "unknown scale %q (want quick or paper)\n", *scale)
		os.Exit(2)
	}
	sc.Seed = *seed
	if *repeats > 0 {
		sc.Repeats = *repeats
	}
	if *budget > 0 {
		sc.Budget = *budget
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = []string{
			"table1", "table2", "table3",
			"fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f",
			"fig4a", "fig4b",
			"fig5a", "fig5b", "fig5c",
			"table4", "fig6",
			"table5", "fig7",
		}
	} else if *exp == "ablations" {
		ids = []string{"ablation-ensemble", "ablation-acquisition", "ablation-sourcecap", "ablation-robusteval"}
	}
	for _, id := range ids {
		if err := run(id, sc); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}

func run(id string, sc experiments.Scale) error {
	switch {
	case id == "table1":
		fmt.Print(experiments.Table1())
	case id == "table2":
		fmt.Print(experiments.Table2())
	case id == "table3":
		fmt.Print(experiments.Table3())
	case id == "table4":
		res, err := experiments.Table4(sc)
		if err != nil {
			return err
		}
		fmt.Println("== table4: SuperLU_DIST sensitivity (Si5H12, 4 Haswell nodes)")
		fmt.Print(res.String())
		fmt.Printf("most sensitive (ST >= 0.1): %v\n", res.MostSensitive(0.1))
	case id == "table5":
		res, err := experiments.Table5(sc)
		if err != nil {
			return err
		}
		fmt.Println("== table5: Hypre sensitivity (nx=ny=nz=100, 1 Haswell node)")
		fmt.Print(res.String())
		fmt.Printf("most sensitive (ST >= 0.1): %v\n", res.MostSensitive(0.1))
	case strings.HasPrefix(id, "fig3"):
		res, err := experiments.Fig3(strings.TrimPrefix(id, "fig3"), sc)
		if err != nil {
			return err
		}
		res.Render(os.Stdout)
		summarize(res)
	case strings.HasPrefix(id, "fig4"):
		res, err := experiments.Fig4(strings.TrimPrefix(id, "fig4"), sc)
		if err != nil {
			return err
		}
		res.Render(os.Stdout)
		summarize(res)
	case strings.HasPrefix(id, "fig5"):
		res, err := experiments.Fig5(strings.TrimPrefix(id, "fig5"), sc)
		if err != nil {
			return err
		}
		res.Render(os.Stdout)
		summarize(res)
	case id == "fig6":
		res, err := experiments.Fig6(sc)
		if err != nil {
			return err
		}
		res.Render(os.Stdout)
		reducedSummary(res)
	case id == "fig7":
		res, err := experiments.Fig7(sc)
		if err != nil {
			return err
		}
		res.Render(os.Stdout)
		reducedSummary(res)
	case strings.HasPrefix(id, "ablation-"):
		var res *experiments.FigureResult
		var err error
		switch id {
		case "ablation-ensemble":
			res, err = experiments.AblationEnsemble(sc)
		case "ablation-acquisition":
			res, err = experiments.AblationAcquisition(sc)
		case "ablation-sourcecap":
			res, err = experiments.AblationSourceCap(sc)
		case "ablation-robusteval":
			res, err = experiments.AblationRobustEval(sc)
		default:
			return fmt.Errorf("unknown ablation %q", id)
		}
		if err != nil {
			return err
		}
		res.Render(os.Stdout)
	default:
		return fmt.Errorf("unknown experiment id %q", id)
	}
	fmt.Println()
	return nil
}

// summarize prints the winner ordering and the TLA-vs-NoTLA speedup the
// paper headlines.
func summarize(res *experiments.FigureResult) {
	at := res.Budget
	if at > 10 {
		at = 10 // the paper reports "10th evaluation" numbers
	}
	rank := res.RankAtBudget(at)
	fmt.Printf("ranking at eval %d: %v\n", at, rank)
	no := res.BestAt("NoTLA", at)
	if len(rank) > 0 && rank[0] != "NoTLA" && no > 0 {
		best := res.BestAt(rank[0], at)
		if best > 0 {
			fmt.Printf("best TLA (%s) vs NoTLA at eval %d: %.2fx (%.1f%% improvement)\n",
				rank[0], at, no/best, 100*(1-best/no))
		}
	}
}

func reducedSummary(res *experiments.FigureResult) {
	at := res.Budget
	if at > 10 {
		at = 10
	}
	orig := res.BestAt("original space", at)
	red := res.BestAt("reduced space", at)
	if orig > 0 && red > 0 {
		fmt.Printf("reduced vs original at eval %d: %.2fx (%.1f%% improvement)\n",
			at, orig/red, 100*(1-red/orig))
	}
}
