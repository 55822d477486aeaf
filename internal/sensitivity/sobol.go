// Package sensitivity implements variance-based global sensitivity
// analysis (Sobol' indices) over black-box functions and fitted
// surrogate models — the backend of GPTuneCrowd's
// QuerySensitivityAnalysis utility (Section IV-B). Sampling follows
// Saltelli's cross-sampling scheme on a Sobol' sequence and the
// estimators match SALib's defaults (Saltelli 2010 for S1, Jansen 1999
// for ST), including the normal-theory bootstrap confidence intervals.
package sensitivity

import (
	"fmt"
	"math/rand"

	"gptunecrowd/internal/parallel"
	"gptunecrowd/internal/sample"
	"gptunecrowd/internal/space"
	"gptunecrowd/internal/stat"
)

// Result holds first-order and total-effect indices with confidence
// half-widths, aligned with Names.
type Result struct {
	Names  []string
	S1     []float64
	S1Conf []float64
	ST     []float64
	STConf []float64
}

// String renders the result as the paper's Table IV/V layout.
func (r *Result) String() string {
	out := fmt.Sprintf("%-20s %8s %8s %8s %8s\n", "Parameter", "S1", "S1.conf", "ST", "ST.conf")
	for i, n := range r.Names {
		out += fmt.Sprintf("%-20s %8.2f %8.2f %8.2f %8.2f\n", n, r.S1[i], r.S1Conf[i], r.ST[i], r.STConf[i])
	}
	return out
}

// MostSensitive returns parameter names whose total-effect index is at
// least stThreshold, ordered by decreasing ST — the input to search
// space reduction (Sections VI-D and VI-E).
func (r *Result) MostSensitive(stThreshold float64) []string {
	type pair struct {
		name string
		st   float64
	}
	var ps []pair
	for i, n := range r.Names {
		if r.ST[i] >= stThreshold {
			ps = append(ps, pair{n, r.ST[i]})
		}
	}
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].st > ps[j-1].st; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.name
	}
	return names
}

// Options controls the analysis.
type Options struct {
	N     int   // base samples (model evaluations = N·(dim+2)); default 1024
	NBoot int   // bootstrap replicates for confidence intervals; default 100
	Seed  int64 // bootstrap RNG seed
}

const (
	sobolSkip = 0    // leading Sobol' points skipped
	alpha     = 0.05 // confidence level complement: 95 % intervals
)

func (o *Options) defaults() {
	if o.N == 0 {
		o.N = 1024
	}
	if o.NBoot == 0 {
		o.NBoot = 100
	}
}

// Analyze computes Sobol' indices of f over the unit hypercube [0,1)^dim.
// The N·(dim+2) evaluations of f run concurrently, so f must be safe
// for concurrent calls; each writes its own slot and the estimators run
// serially, so results are bit-identical for every worker count.
func Analyze(f func(u []float64) float64, dim int, names []string, opts Options) (*Result, error) {
	opts.defaults()
	if dim < 1 {
		return nil, fmt.Errorf("sensitivity: dimension %d", dim)
	}
	if names == nil {
		names = make([]string, dim)
		for i := range names {
			names[i] = fmt.Sprintf("x%d", i+1)
		}
	}
	if len(names) != dim {
		return nil, fmt.Errorf("sensitivity: %d names for %d dimensions", len(names), dim)
	}
	design, err := sample.NewSaltelli(opts.N, dim, sobolSkip)
	if err != nil {
		return nil, err
	}
	// Fan the N·(dim+2) objective evaluations out over workers: flat
	// index e enumerates [A | B | AB_0 … AB_{dim-1}] row-major, and every
	// evaluation writes exactly one output slot.
	yA := make([]float64, opts.N)
	yB := make([]float64, opts.N)
	yAB := make([][]float64, dim)
	for d := 0; d < dim; d++ {
		yAB[d] = make([]float64, opts.N)
	}
	parallel.For(opts.N*(dim+2), 0, func(e int) {
		i := e % opts.N
		switch block := e / opts.N; {
		case block == 0:
			yA[i] = f(design.A[i])
		case block == 1:
			yB[i] = f(design.B[i])
		default:
			yAB[block-2][i] = f(design.AB[block-2][i])
		}
	})
	return estimate(yA, yB, yAB, names, opts), nil
}

// estimate computes the indices and bootstrap intervals from the raw
// design outputs.
func estimate(yA, yB []float64, yAB [][]float64, names []string, opts Options) *Result {
	dim := len(yAB)
	n := len(yA)
	res := &Result{
		Names:  names,
		S1:     make([]float64, dim),
		S1Conf: make([]float64, dim),
		ST:     make([]float64, dim),
		STConf: make([]float64, dim),
	}
	s1Est := func(d int, idx []int) float64 {
		v := varOf(yA, yB, idx)
		if v <= 0 {
			return 0
		}
		var s float64
		for _, i := range idx {
			s += yB[i] * (yAB[d][i] - yA[i])
		}
		return s / float64(len(idx)) / v
	}
	stEst := func(d int, idx []int) float64 {
		v := varOf(yA, yB, idx)
		if v <= 0 {
			return 0
		}
		var s float64
		for _, i := range idx {
			diff := yA[i] - yAB[d][i]
			s += diff * diff
		}
		return 0.5 * s / float64(len(idx)) / v
	}
	full := make([]int, n)
	for i := range full {
		full[i] = i
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	for d := 0; d < dim; d++ {
		res.S1[d] = s1Est(d, full)
		res.ST[d] = stEst(d, full)
		s1Reps := stat.Bootstrap(n, opts.NBoot, rng, func(idx []int) float64 { return s1Est(d, idx) })
		stReps := stat.Bootstrap(n, opts.NBoot, rng, func(idx []int) float64 { return stEst(d, idx) })
		res.S1Conf[d] = stat.BootstrapConf(s1Reps, alpha)
		res.STConf[d] = stat.BootstrapConf(stReps, alpha)
	}
	return res
}

// varOf is the variance of yA∪yB restricted to the index subset (the
// SALib normalization).
func varOf(yA, yB []float64, idx []int) float64 {
	vals := make([]float64, 0, 2*len(idx))
	for _, i := range idx {
		vals = append(vals, yA[i], yB[i])
	}
	return stat.Variance(vals)
}

// AnalyzeSpace computes Sobol' indices of a configuration-level function
// over a parameter space: design points are drawn in the normalized
// hypercube and decoded (so integer and categorical parameters are
// exercised across their levels). This is the form used for surrogate
// models queried from the shared database.
func AnalyzeSpace(f func(cfg map[string]interface{}) float64, sp *space.Space, opts Options) (*Result, error) {
	return Analyze(func(u []float64) float64 {
		return f(sp.Decode(u))
	}, sp.Dim(), sp.Names(), opts)
}
