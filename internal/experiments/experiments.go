// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI): the TLA-algorithm comparisons on synthetic
// functions (Fig. 3), the PDGEQRF and NIMROD transfer-learning case
// studies (Figs. 4–5), the SuperLU_DIST and Hypre sensitivity analyses
// (Tables IV–V) and the reduced-search-space tuning experiments
// (Figs. 6–7). Each experiment prints the same rows/series the paper
// reports: best-so-far objective per function evaluation, averaged over
// repeats, with standard deviations.
package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"gptunecrowd/internal/core"
	"gptunecrowd/internal/stat"
	"gptunecrowd/internal/surrogate"
	"gptunecrowd/internal/tla"
)

// Series is one tuner's best-so-far trajectory, aggregated over repeats.
type Series struct {
	Name string
	Mean []float64 // indexed by evaluation (0-based); NaN until first success
	Std  []float64
}

// FigureResult is a rendered comparison.
type FigureResult struct {
	ID     string
	Title  string
	Budget int
	Series []Series
	Notes  []string
}

// Render prints the figure as a table: one row per evaluation count,
// one column pair (mean, std) per tuner. NaN cells print as "-",
// matching the paper's convention of not drawing points when runs
// failed.
func (f *FigureResult) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s (budget %d)\n", f.ID, f.Title, f.Budget)
	fmt.Fprintf(w, "%-6s", "eval")
	for _, s := range f.Series {
		fmt.Fprintf(w, " %22s", s.Name)
	}
	fmt.Fprintln(w)
	for i := 0; i < f.Budget; i++ {
		fmt.Fprintf(w, "%-6d", i+1)
		for _, s := range f.Series {
			if i < len(s.Mean) && !math.IsNaN(s.Mean[i]) {
				fmt.Fprintf(w, " %12.4g ±%7.3g", s.Mean[i], s.Std[i])
			} else {
				fmt.Fprintf(w, " %22s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// BestAt returns the mean best-so-far after n evaluations.
func (f *FigureResult) BestAt(name string, n int) float64 {
	for _, s := range f.Series {
		if s.Name == name && n >= 1 && n <= len(s.Mean) {
			return s.Mean[n-1]
		}
	}
	return math.NaN()
}

// CompareSpec drives a multi-tuner comparison.
type CompareSpec struct {
	Problem    *core.Problem
	Task       map[string]interface{}
	Algorithms []string // names resolved by surrogate.NewProposer
	// Sources for the TLA algorithms (ignored by NoTLA).
	Sources          []*tla.Source
	MaxSourceSamples int
	Budget           int
	Repeats          int
	Seed             int64
	Search           core.SearchOptions
}

// CaseStudyTuners is the lineup used in the real-application figures.
var CaseStudyTuners = []string{
	"NoTLA",
	"Multitask(TS)",
	"WeightedSum(dynamic)",
	"Stacking",
	"Ensemble(proposed)",
}

// RunCompare executes the comparison and aggregates best-so-far
// trajectories over repeats (mean and standard deviation, as plotted in
// the paper's line charts with shaded areas).
func RunCompare(spec CompareSpec) (*FigureResult, error) {
	if spec.Budget <= 0 || spec.Repeats <= 0 {
		return nil, fmt.Errorf("experiments: budget and repeats must be positive")
	}
	res := &FigureResult{Budget: spec.Budget}
	for _, alg := range spec.Algorithms {
		alg := alg
		s, err := runSeries(alg, spec, func() (core.Proposer, error) {
			return surrogate.NewProposer(alg, surrogate.PoolConfig{
				Config: surrogate.Config{Sources: spec.Sources, MaxSourceSamples: spec.MaxSourceSamples},
			})
		})
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// runSeries runs one tuner spec.Repeats times on spec's problem, budget
// and seeds and aggregates the best-so-far trajectories under name.
// newProposer is called per repeat: proposers carry per-run state.
func runSeries(name string, spec CompareSpec, newProposer func() (core.Proposer, error)) (Series, error) {
	trajectories := make([][]float64, 0, spec.Repeats)
	for r := 0; r < spec.Repeats; r++ {
		prop, err := newProposer()
		if err != nil {
			return Series{}, err
		}
		h, err := core.RunLoop(spec.Problem, spec.Task, prop, core.SessionOptions{
			Budget: spec.Budget,
			Seed:   spec.Seed + int64(r)*7919,
			Search: spec.Search,
		})
		if err != nil {
			return Series{}, fmt.Errorf("experiments: %s repeat %d: %w", name, r, err)
		}
		trajectories = append(trajectories, h.BestSoFar())
	}
	return aggregate(name, trajectories, spec.Budget), nil
}

// aggregate averages trajectories; an evaluation where any repeat is
// still NaN (no success yet) yields NaN, matching the paper's "do not
// draw points if the runs had any failures".
func aggregate(name string, trajectories [][]float64, budget int) Series {
	s := Series{Name: name, Mean: make([]float64, budget), Std: make([]float64, budget)}
	vals := make([]float64, 0, len(trajectories))
	for i := 0; i < budget; i++ {
		vals = vals[:0]
		anyNaN := false
		for _, tr := range trajectories {
			if i >= len(tr) || math.IsNaN(tr[i]) {
				anyNaN = true
				break
			}
			vals = append(vals, tr[i])
		}
		if anyNaN {
			s.Mean[i] = math.NaN()
			s.Std[i] = math.NaN()
			continue
		}
		s.Mean[i] = stat.Mean(vals)
		s.Std[i] = stat.StdDev(vals)
	}
	return s
}

// CollectSourceSamples gathers n random-configuration samples of a
// problem/task pair as a TLA source (the paper's source datasets are
// "randomly chosen parameter configurations"). Failures are skipped.
func CollectSourceSamples(name string, p *core.Problem, task map[string]interface{}, n int, seed int64) (*tla.Source, error) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, 0, n)
	Y := make([]float64, 0, n)
	attempts := 0
	for len(X) < n {
		attempts++
		if attempts > 30*n+200 {
			return nil, fmt.Errorf("experiments: too many failures collecting source %q", name)
		}
		u := core.RandomPoint(p.ParamSpace, rng)
		y, err := p.Evaluator.Evaluate(task, p.ParamSpace.Decode(u))
		if err != nil {
			continue
		}
		X = append(X, u)
		Y = append(Y, y)
	}
	return tla.NewSource(name, X, Y), nil
}

// RankAtBudget orders series names by mean best-so-far after n
// evaluations (ascending, i.e. winner first; NaN last).
func (f *FigureResult) RankAtBudget(n int) []string {
	type pair struct {
		name string
		v    float64
	}
	ps := make([]pair, 0, len(f.Series))
	for _, s := range f.Series {
		ps = append(ps, pair{s.Name, f.BestAt(s.Name, n)})
	}
	sort.SliceStable(ps, func(a, b int) bool {
		av, bv := ps[a].v, ps[b].v
		if math.IsNaN(av) {
			return false
		}
		if math.IsNaN(bv) {
			return true
		}
		return av < bv
	})
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.name
	}
	return out
}
