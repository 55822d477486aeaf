package experiments

import (
	"fmt"
	"strings"

	"gptunecrowd/internal/apps/nimrod"
	"gptunecrowd/internal/apps/scalapack"
	"gptunecrowd/internal/machine"
	"gptunecrowd/internal/space"
	"gptunecrowd/internal/surrogate"
)

// Table1 renders the TLA algorithm pool (the paper's Table I) from the
// live tuner table, so the printout cannot drift from the code: the
// rows with a Table I entry, each with the selection policy, model arms
// and warm-up rule surrogate.NewProposer runs it by.
func Table1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== table1: the TLA algorithm pool\n")
	fmt.Fprintf(&b, "%-22s %-82s %-18s %s\n", "Naming", "Description", "First autotuner", "Runs as: policy | arms | warm-up")
	for _, r := range surrogate.Table() {
		if r.Origin == "" {
			continue
		}
		policy, warmup := "—", "equal-weight source mix, LCB"
		if len(r.Arms) > 1 {
			policy = r.Policy.String()
		}
		if r.Warmup > 0 {
			warmup = fmt.Sprintf("%d random draws", r.Warmup)
		}
		fmt.Fprintf(&b, "%-22s %-82s %-18s %s | %s | %s\n", r.Name, r.Desc, r.Origin, policy, strings.Join(r.Arms, ", "), warmup)
	}
	return b.String()
}

// renderSpace prints a tuning space as the paper's parameter tables.
func renderSpace(title string, sp *space.Space, desc map[string]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", title)
	fmt.Fprintf(&b, "%-14s %-60s %-12s %s\n", "Parameter", "Description", "Type", "Range")
	for _, p := range sp.Params {
		var rng string
		switch p.Kind {
		case space.Categorical:
			rng = fmt.Sprintf("%d choices", len(p.Categories))
		default:
			rng = fmt.Sprintf("[%g,%g)", p.Lo, p.Hi)
		}
		fmt.Fprintf(&b, "%-14s %-60s %-12s %s\n", p.Name, desc[p.Name], p.Kind, rng)
	}
	return b.String()
}

// Table2 renders the PDGEQRF tuning parameters (paper Table II) from
// the live parameter space.
func Table2() string {
	app := scalapack.New(machine.CoriHaswell(8))
	return renderSpace("table2: PDGEQRF tuning parameters (8 Haswell nodes)", app.ParamSpace(), map[string]string{
		"mb":          "row block size = 8*mb",
		"nb":          "column block size = 8*nb",
		"lg2npernode": "number of MPI processes per node = 2^lg2npernode",
		"p":           "number of row processes",
	})
}

// Table3 renders the NIMROD tuning parameters (paper Table III).
func Table3() string {
	app := nimrod.New(machine.CoriHaswell(32))
	return renderSpace("table3: NIMROD tuning parameters", app.ParamSpace(), map[string]string{
		"NSUP": "maximum supernode size in SuperLU",
		"NREL": "upper bound of the minimum supernode size in SuperLU",
		"nbx":  "2^nbx blocking in x for assembling NIMROD matrices",
		"nby":  "2^nby blocking in y for assembling NIMROD matrices",
		"npz":  "2^npz processes in z of each SuperLU 3D process grid",
	})
}
