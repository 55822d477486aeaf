package surrogate

import (
	"fmt"
	"slices"

	"gptunecrowd/internal/core"
	"gptunecrowd/internal/tla"
)

// Row is one tuner: the policy that picks a model per evaluation, the
// models it picks from, and what answers before any model can.
type Row struct {
	Name   string // as accepted by TuneOptions.Algorithm / Surrogate
	Policy Policy
	Arms   []string // model kinds, or armSpace; none = core.GPTuner
	// Warmup is the number of robust history rows required before an arm
	// runs, answered by random feasible draws. A row of 0 starts from the
	// sources instead: its first evaluation searches their equal-weight
	// mix with LCB (see Pool.first).
	Warmup int
	// SourceFed rows refuse to run without source tasks; the others drop
	// the arms that need them.
	SourceFed bool
	// Desc and Origin are the row's entry in the paper's Table I: what it
	// is and the autotuner it first appeared in (empty outside Table I).
	Desc, Origin string
}

var ensembleArms = []string{KindLCM, KindWeightedSumDynamic, KindStacking}

// table is the one registry of tuners: the nine of the paper's Fig. 3
// lineup (Table I plus the NoTLA baseline and the two naive ensembles),
// then the surrogate kinds. A single model is a pool of one arm.
var table = []Row{
	{Name: "NoTLA"},
	{Name: "Multitask(PS)", Arms: []string{KindMultitaskPS}, SourceFed: true,
		Desc: "LCM multitask learning with pseudo samples from black-box source surrogates", Origin: "GPTune 2021 [11]"},
	{Name: "Multitask(TS)", Arms: []string{KindLCM}, SourceFed: true,
		Desc: "LCM multitask learning with true samples of the source tasks", Origin: "GPTuneCrowd"},
	{Name: "WeightedSum(equal)", Arms: []string{KindWeightedSumEqual}, SourceFed: true,
		Desc: "weighted sum of source/target surrogates, equal weights (static in the original)", Origin: "HiPerBOt [6]"},
	{Name: "WeightedSum(dynamic)", Arms: []string{KindWeightedSumDynamic}, SourceFed: true,
		Desc: "weighted sum with weights from a linear-regression fit each iteration", Origin: "GPTuneCrowd"},
	{Name: "Stacking", Arms: []string{KindStacking}, SourceFed: true,
		Desc: "residual-stacked source surrogates, sample-count-weighted std combination", Origin: "Vizier [12]"},
	{Name: "Ensemble(proposed)", Policy: PDFExplore, Arms: ensembleArms, SourceFed: true,
		Desc: "per-evaluation TLA selection by PDF (Eq. 3) with exploration rate (Eq. 4)", Origin: "GPTuneCrowd"},
	{Name: "Ensemble(toggling)", Policy: Toggling, Arms: ensembleArms, SourceFed: true},
	{Name: "Ensemble(prob)", Policy: PDF, Arms: ensembleArms, SourceFed: true},

	{Name: KindAuto, Arms: []string{KindGP, KindLCM, KindCopula, KindSGP, armSpace}, Warmup: 3},
	{Name: KindGP, Arms: []string{KindGP}, Warmup: 3},
	{Name: KindLCM, Arms: []string{KindLCM}, Warmup: 3, SourceFed: true},
	{Name: KindCopula, Arms: []string{KindCopula}, Warmup: 3},
	{Name: KindSGP, Arms: []string{KindSGP}, Warmup: 3},
}

// Algorithms lists the tuner names TuneOptions.Algorithm documents:
// Table I of the paper plus the NoTLA baseline and the two naive
// ensembles — the nine-tuner lineup of Fig. 3.
func Algorithms() []string { return rowNames(func(r Row) bool { return r.Warmup == 0 }) }

// Kinds lists the names TuneOptions.Surrogate documents: "auto" and the
// single-model tuners.
func Kinds() []string { return rowNames(func(r Row) bool { return r.Warmup > 0 }) }

func rowNames(keep func(Row) bool) []string {
	var out []string
	for _, r := range table {
		if keep(r) {
			out = append(out, r.Name)
		}
	}
	return out
}

// Table returns the tuner table — name → (policy, arms, warm-up) — so
// printouts cannot drift from what NewProposer builds.
func Table() []Row { return slices.Clone(table) }

// NewProposer builds a fresh tuner by name (tuners carry per-run state,
// so every run needs its own): one lookup in the table of Algorithms()
// and Kinds(). The empty name resolves to "NoTLA" without sources and
// "Ensemble(proposed)" with them.
func NewProposer(name string, cfg PoolConfig) (core.Proposer, error) {
	if name == "" {
		name = "NoTLA"
		if len(cfg.Sources) > 0 {
			name = "Ensemble(proposed)"
		}
	}
	for _, r := range table {
		if r.Name != name {
			continue
		}
		if len(r.Arms) == 0 {
			return core.NewGPTuner(), nil
		}
		if r.SourceFed && len(cfg.Sources) == 0 {
			return nil, fmt.Errorf("surrogate: tuner %q: %w", name, tla.ErrNoSources)
		}
		return &Pool{cfg: cfg, row: r, lastArm: -1}, nil
	}
	return nil, fmt.Errorf("surrogate: unknown tuner %q (want one of %v or %v)", name, Algorithms(), Kinds())
}
