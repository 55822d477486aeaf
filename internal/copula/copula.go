// Package copula implements a Gaussian-copula few-shot transfer
// surrogate in the style of GC_TLA (Randall et al.): each task's
// objective values are mapped through their empirical CDF to standard
// normal scores, the pooled (x, z) rows from related-task histories and
// the target history are modelled with a single joint Gaussian, and
// predictions condition z on x before mapping back through the target
// task's empirical quantile function.
//
// The model is deliberately cheap: fitting is one pass over the pooled
// rows plus a d×d Cholesky solve — O(n·d² + d³) against the O(n³) of a
// full GP — so it stays fast on crowd histories with tens of thousands
// of samples, at the price of only capturing monotone-transformed
// linear structure.
package copula

import (
	"fmt"
	"math"
	"sort"

	"gptunecrowd/internal/linalg"
	"gptunecrowd/internal/parallel"
	"gptunecrowd/internal/stat"
)

// Source is one related task's evaluation history used as a transfer
// prior. X rows are canonical (normalized) parameter points; Y holds
// the matching objective values (failures already filtered out).
type Source struct {
	Name string
	X    [][]float64
	Y    []float64
}

const (
	// shrinkage scales the off-diagonal covariance entries by (1 -
	// shrinkage), regularizing the joint Gaussian toward independent
	// marginals.
	shrinkage = 0.05
	// stdFloor is the minimum predictive standard deviation in
	// objective units, keeping acquisitions well defined when the
	// conditional collapses.
	stdFloor = 1e-6
)

// Model is the Gaussian-copula transfer surrogate. It satisfies
// core.Surrogate. After Fit returns, Predict and PredictBatchInto are
// safe for concurrent use; Fit and Observe are not.
type Model struct {
	dim     int
	sources []Source

	// target history (copies; appended to by Observe)
	tx [][]float64
	ty []float64

	// fitted state
	fitted  bool
	mu      []float64 // mean of (x₁..x_d, z)
	beta    []float64 // Σ_xx⁻¹ Σ_xz
	condStd float64   // √(σ_zz − Σ_zx β), in score space
	inv     *transform
}

// New returns an unfitted model over a dim-dimensional canonical
// parameter space with the given related-task histories (nil for a
// single-task fit).
func New(dim int, sources []Source) *Model {
	return &Model{dim: dim, sources: sources}
}

// Name identifies the surrogate kind.
func (m *Model) Name() string { return "copula" }

// Fit replaces the target history with (X, Y) and refits the joint
// Gaussian over the pooled source and target score rows. X may be
// empty for a pure few-shot fit from the sources alone.
func (m *Model) Fit(X [][]float64, Y []float64) error {
	if len(X) != len(Y) {
		return fmt.Errorf("copula: len(X)=%d, len(Y)=%d", len(X), len(Y))
	}
	m.tx = m.tx[:0]
	m.ty = m.ty[:0]
	for i, x := range X {
		if len(x) != m.dim {
			return fmt.Errorf("copula: point %d has dim %d, want %d", i, len(x), m.dim)
		}
		m.tx = append(m.tx, append([]float64(nil), x...))
		m.ty = append(m.ty, Y[i])
	}
	return m.refit()
}

// Observe appends one target evaluation and refits. The refit is a
// single covariance pass, so incremental use stays cheap.
func (m *Model) Observe(x []float64, y float64) error {
	if len(x) != m.dim {
		return fmt.Errorf("copula: observed point has dim %d, want %d", len(x), m.dim)
	}
	m.tx = append(m.tx, append([]float64(nil), x...))
	m.ty = append(m.ty, y)
	return m.refit()
}

func (m *Model) refit() error {
	d := m.dim
	var rows [][]float64
	addTask := func(X [][]float64, Y []float64) {
		if len(Y) < 2 {
			return // a single point has no empirical CDF
		}
		tr := newTransform(Y)
		for i, x := range X {
			r := make([]float64, d+1)
			copy(r, x)
			r[d] = tr.Score(Y[i])
			rows = append(rows, r)
		}
	}
	for _, s := range m.sources {
		addTask(s.X, s.Y)
	}
	addTask(m.tx, m.ty)
	if len(rows) < 3 {
		return fmt.Errorf("copula: %d pooled samples, need at least 3 (sources plus target)", len(rows))
	}

	mu := make([]float64, d+1)
	for _, r := range rows {
		for j, v := range r {
			mu[j] += v
		}
	}
	for j := range mu {
		mu[j] /= float64(len(rows))
	}
	cov := linalg.NewMatrix(d+1, d+1)
	for _, r := range rows {
		for i := 0; i <= d; i++ {
			di := r[i] - mu[i]
			for j := i; j <= d; j++ {
				cov.Add(i, j, di*(r[j]-mu[j]))
			}
		}
	}
	norm := 1.0 / float64(len(rows)-1)
	keep := 1 - shrinkage
	for i := 0; i <= d; i++ {
		for j := i; j <= d; j++ {
			v := cov.At(i, j) * norm
			if i != j {
				v *= keep
				cov.Set(j, i, v)
			}
			cov.Set(i, j, v)
		}
	}

	sxx := linalg.NewMatrix(d, d)
	sxz := make([]float64, d)
	for i := 0; i < d; i++ {
		sxz[i] = cov.At(i, d)
		for j := 0; j < d; j++ {
			sxx.Set(i, j, cov.At(i, j))
		}
	}
	ch, err := linalg.NewCholeskyJitter(sxx, 1e-10)
	if err != nil {
		return fmt.Errorf("copula: covariance factorization: %w", err)
	}
	beta := ch.SolveVec(sxz)
	condVar := cov.At(d, d)
	for i, b := range beta {
		condVar -= sxz[i] * b
	}
	if condVar < 1e-12 {
		condVar = 1e-12
	}

	// The inverse map uses the target's own quantile function as soon
	// as it has two distinct objective values; before that, the pooled
	// source objectives act as the few-shot prior for the output scale.
	inv := m.ty
	if countDistinct(m.ty) < 2 {
		var pooled []float64
		for _, s := range m.sources {
			pooled = append(pooled, s.Y...)
		}
		pooled = append(pooled, m.ty...)
		if len(pooled) == 0 {
			return fmt.Errorf("copula: no objective values to build a quantile map")
		}
		inv = pooled
	}

	m.mu = mu
	m.beta = beta
	m.condStd = math.Sqrt(condVar)
	m.inv = newTransform(inv)
	m.fitted = true
	return nil
}

// Predict returns the conditional mean and an uncertainty half-width
// at canonical point x, both in objective units. Before the first
// successful Fit it returns the standard-normal prior (0, 1).
func (m *Model) Predict(x []float64) (mean, std float64) {
	if !m.fitted {
		return 0, 1
	}
	d := m.dim
	z := m.mu[d]
	for j, b := range m.beta {
		z += b * (x[j] - m.mu[j])
	}
	if z < -8 {
		z = -8
	} else if z > 8 {
		z = 8
	}
	mean = m.inv.Value(z)
	lo := m.inv.Value(z - m.condStd)
	hi := m.inv.Value(z + m.condStd)
	std = (hi - lo) / 2
	if std < stdFloor {
		std = stdFloor
	}
	return mean, std
}

// PredictBatchInto fills means and stds for every row of X, fanning
// the (independent, deterministic) per-point predictions out over
// workers. Results are bit-identical for every worker count.
func (m *Model) PredictBatchInto(X [][]float64, means, stds []float64, workers int) {
	parallel.For(len(X), workers, func(i int) {
		means[i], stds[i] = m.Predict(X[i])
	})
}

// TargetLen reports the number of target samples currently held.
func (m *Model) TargetLen() int { return len(m.ty) }

func countDistinct(ys []float64) int {
	seen := make(map[float64]struct{}, len(ys))
	for _, y := range ys {
		seen[y] = struct{}{}
		if len(seen) >= 2 {
			return 2
		}
	}
	return len(seen)
}

// transform is one task's monotone empirical map between objective
// values and standard normal scores. Knots pair each distinct sorted
// objective value with the normal quantile of its Hazen plotting
// position p = (rank − ½)/n (average rank under ties); both Score and
// Value interpolate linearly between knots and are exact at them, so
// Value(Score(y)) == y bit-for-bit for every training value.
type transform struct {
	yk []float64 // distinct objective values, ascending
	zk []float64 // matching normal scores, strictly increasing
}

func newTransform(ys []float64) *transform {
	n := len(ys)
	s := append([]float64(nil), ys...)
	sort.Float64s(s)
	t := &transform{}
	for i := 0; i < n; {
		j := i
		for j+1 < n && s[j+1] == s[i] {
			j++
		}
		rank := float64(i+j)/2 + 1
		p := (rank - 0.5) / float64(n)
		t.yk = append(t.yk, s[i])
		t.zk = append(t.zk, stat.NormQuantile(p))
		i = j + 1
	}
	return t
}

// Score maps an objective value to its normal score, clamping outside
// the observed range.
func (t *transform) Score(y float64) float64 {
	return interp(t.yk, t.zk, y)
}

// Value maps a normal score back to an objective value, clamping
// outside the knot range.
func (t *transform) Value(z float64) float64 {
	return interp(t.zk, t.yk, z)
}

// interp evaluates the piecewise-linear map through (xs[i], vs[i]) at
// x, exact at knots and clamped beyond the ends.
func interp(xs, vs []float64, x float64) float64 {
	n := len(xs)
	i := sort.SearchFloat64s(xs, x)
	switch {
	case i < n && xs[i] == x:
		return vs[i]
	case i == 0:
		return vs[0]
	case i == n:
		return vs[n-1]
	}
	frac := (x - xs[i-1]) / (xs[i] - xs[i-1])
	return vs[i-1] + frac*(vs[i]-vs[i-1])
}
