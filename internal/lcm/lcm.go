// Package lcm implements the Linear Coregionalization Model used by
// GPTune-style multitask learning: a joint Gaussian process over several
// tasks whose cross-task covariance is
//
//	K[(i,a),(j,b)] = Σ_q B_q[i,j] · k_q(x_a, x_b),  B_q = a_q·a_qᵀ + diag(κ_q)
//
// with one ARD kernel k_q per latent process. The model supports an
// unequal number of samples per task, which is what enables the paper's
// Multitask(TS) scheme (many true source samples, few target samples).
package lcm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"gptunecrowd/internal/kernel"
	"gptunecrowd/internal/linalg"
	"gptunecrowd/internal/optimize"
	"gptunecrowd/internal/parallel"
	"gptunecrowd/internal/stat"
)

// ErrNoData is returned when every task is empty.
var ErrNoData = errors.New("lcm: no training data in any task")

// Options configures an LCM fit.
type Options struct {
	Q           int         // number of latent processes (default min(tasks, 3))
	Kernel      kernel.Type // latent kernel family (default Matern52)
	Categorical []bool      // per-dimension categorical flags
	Restarts    int         // multi-start count (default 2)
	MaxIter     int         // L-BFGS iterations per start (default 50)
	Seed        int64
	// Workers bounds the parallelism of the fit (restart fan-out, stacked
	// covariance assembly, gradient reduction). <= 0 means the engine
	// default: GPTUNE_WORKERS when set, else GOMAXPROCS. Results are
	// bit-identical for every worker count at a fixed Seed.
	Workers int
}

// Model is a fitted LCM.
type Model struct {
	numTasks int
	dim      int
	q        int
	kerns    []*kernel.Kernel // one per latent process (unit variance)
	*lcmParams

	// Stacked training data.
	x     [][]float64 // all samples
	task  []int       // task index per sample
	alpha []float64
	chol  *linalg.Cholesky

	meanY, stdY []float64 // per-task standardization

	// predictPool recycles Predict's scratch (a *[]float64) so that
	// Predict is allocation-flat and safe to call from many goroutines.
	predictPool sync.Pool
}

// Fit trains an LCM on per-task datasets. X[t] and Y[t] hold the samples
// of task t; tasks may be empty (e.g. a target task with no evaluations
// yet — its coregionalization weights then stay at their prior values).
func Fit(X [][][]float64, Y [][]float64, opts Options) (*Model, error) {
	numTasks := len(X)
	if numTasks == 0 || len(Y) != numTasks {
		return nil, fmt.Errorf("lcm: need matching task datasets, got %d/%d", len(X), len(Y))
	}
	dim := 0
	total := 0
	for t := range X {
		if len(X[t]) != len(Y[t]) {
			return nil, fmt.Errorf("lcm: task %d has %d inputs but %d targets", t, len(X[t]), len(Y[t]))
		}
		total += len(X[t])
		for _, x := range X[t] {
			if dim == 0 {
				dim = len(x)
			}
			if len(x) != dim {
				return nil, fmt.Errorf("lcm: inconsistent input dimension in task %d", t)
			}
			for _, v := range x {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("lcm: task %d has a non-finite input coordinate (%v)", t, v)
				}
			}
		}
		for i, y := range Y[t] {
			if math.IsNaN(y) || math.IsInf(y, 0) {
				return nil, fmt.Errorf("lcm: task %d target %d is not finite (%v)", t, i, y)
			}
		}
	}
	if total == 0 {
		return nil, ErrNoData
	}
	if opts.Q <= 0 {
		opts.Q = numTasks
		if opts.Q > 3 {
			opts.Q = 3
		}
	}
	if opts.Kernel == kernel.Auto {
		opts.Kernel = kernel.Matern52
	}
	if opts.Restarts <= 0 {
		opts.Restarts = 2
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 50
	}

	m := &Model{numTasks: numTasks, dim: dim, q: opts.Q}
	m.kerns = make([]*kernel.Kernel, opts.Q)
	for q := range m.kerns {
		m.kerns[q] = &kernel.Kernel{Type: opts.Kernel, Dim: dim, Categorical: opts.Categorical}
	}
	// Per-task standardization; empty tasks get (0, 1).
	m.meanY = make([]float64, numTasks)
	m.stdY = make([]float64, numTasks)
	ys := make([]float64, 0, total)
	for t := range X {
		var z []float64
		m.meanY[t], m.stdY[t], z = stat.Standardize(Y[t])
		for i, x := range X[t] {
			m.x = append(m.x, x)
			m.task = append(m.task, t)
			ys = append(ys, z[i])
		}
	}

	// Start points are drawn up-front from a single seeded stream, so the
	// restart fan-out below cannot perturb them.
	rng := rand.New(rand.NewSource(opts.Seed))
	starts := make([][]float64, 0, opts.Restarts)
	for s := 0; s < opts.Restarts; s++ {
		starts = append(starts, m.initTheta(rng, s == 0))
	}
	// Restarts run concurrently with private scratch each; the argmin
	// reduction is ordered, so the winner is worker-count independent.
	best := optimize.MultiStartParallel(starts, opts.Workers, func(_ int, x0 []float64) optimize.Result {
		sc := m.newFitScratch()
		obj := func(theta []float64) (float64, []float64) {
			return m.nllGrad(ys, theta, opts.Workers, sc)
		}
		return optimize.LBFGS(obj, x0, optimize.LBFGSConfig{MaxIter: opts.MaxIter})
	})
	if math.IsInf(best.F, 1) {
		return nil, errors.New("lcm: hyperparameter optimization failed to find a feasible point")
	}
	m.lcmParams = newLCMParams(m.q, m.dim, m.numTasks)
	m.unpack(best.X)
	if err := m.factorize(ys, opts.Workers); err != nil {
		return nil, err
	}
	return m, nil
}

// Parameter packing order:
//
//	for q: logLen[q][0..dim) , aq[q][0..T), logKappa[q][0..T)
//	then logNoise[0..T)
func (m *Model) numParams() int {
	return m.q*(m.dim+2*m.numTasks) + m.numTasks
}

func (m *Model) initTheta(rng *rand.Rand, canonical bool) []float64 {
	theta := make([]float64, m.numParams())
	idx := 0
	for q := 0; q < m.q; q++ {
		for d := 0; d < m.dim; d++ {
			if canonical {
				theta[idx] = math.Log(0.3)
			} else {
				theta[idx] = math.Log(0.05) + rng.Float64()*(math.Log(2)-math.Log(0.05))
			}
			idx++
		}
		for t := 0; t < m.numTasks; t++ {
			if canonical {
				// Identity-like init: latent q drives task q (mod T) strongly.
				if t%m.q == q {
					theta[idx] = 1
				} else {
					theta[idx] = 0.3
				}
			} else {
				theta[idx] = rng.NormFloat64() * 0.7
			}
			idx++
		}
		for t := 0; t < m.numTasks; t++ {
			theta[idx] = math.Log(0.1)
			idx++
		}
	}
	for t := 0; t < m.numTasks; t++ {
		theta[idx] = math.Log(1e-3)
		idx++
	}
	return theta
}

// lcmParams is the unpacked view of a packed theta vector: a fitted
// Model's parameters, and each restart's reusable buffer, so objective
// evaluations do not allocate.
type lcmParams struct {
	hyper    []*kernel.Hyper // [q] length scales at unit variance
	aq       [][]float64     // [q][task]
	logKappa [][]float64     // [q][task]
	logNoise []float64       // [task] log noise variance
}

func newLCMParams(q, dim, tasks int) *lcmParams {
	p := &lcmParams{
		hyper:    make([]*kernel.Hyper, q),
		aq:       make([][]float64, q),
		logKappa: make([][]float64, q),
		logNoise: make([]float64, tasks),
	}
	for i := 0; i < q; i++ {
		p.hyper[i] = kernel.NewHyper(dim)
		p.aq[i] = make([]float64, tasks)
		p.logKappa[i] = make([]float64, tasks)
	}
	return p
}

// unpack fills p from theta following the Model packing order.
func (p *lcmParams) unpack(theta []float64) {
	idx := 0
	for q, h := range p.hyper {
		idx += copy(h.LogLength, theta[idx:idx+len(h.LogLength)])
		idx += copy(p.aq[q], theta[idx:idx+len(p.aq[q])])
		idx += copy(p.logKappa[q], theta[idx:idx+len(p.logKappa[q])])
	}
	copy(p.logNoise, theta[idx:idx+len(p.logNoise)])
}

// fitScratch holds the per-restart buffers of the LCM objective: latent
// kernel matrices and their gradients, the stacked covariance and the
// coregionalization blocks. Reusing them removes the dominant
// allocations from the fit loop; each optimizer run owns one scratch,
// so concurrent restarts never contend.
type fitScratch struct {
	params *lcmParams
	baseK  []*linalg.Matrix   // [q] latent Gram matrices
	baseG  [][]*linalg.Matrix // [q][dim+1] derivative matrices (variance slot unused)
	K      *linalg.Matrix     // stacked covariance
	bq     []*linalg.Matrix   // [q] T×T coregionalization blocks
}

func (m *Model) newFitScratch() *fitScratch {
	n := len(m.x)
	sc := &fitScratch{
		params: newLCMParams(m.q, m.dim, m.numTasks),
		baseK:  make([]*linalg.Matrix, m.q),
		baseG:  make([][]*linalg.Matrix, m.q),
		K:      linalg.NewMatrix(n, n),
		bq:     make([]*linalg.Matrix, m.q),
	}
	for q := 0; q < m.q; q++ {
		sc.baseK[q] = linalg.NewMatrix(n, n)
		sc.baseG[q] = make([]*linalg.Matrix, m.dim+1)
		for d := range sc.baseG[q] {
			sc.baseG[q][d] = linalg.NewMatrix(n, n)
		}
		sc.bq[q] = linalg.NewMatrix(m.numTasks, m.numTasks)
	}
	return sc
}

// bounds for the packed parameters.
var (
	lcmLogLenLo, lcmLogLenHi     = math.Log(0.01), math.Log(100.0)
	lcmALo, lcmAHi               = -10.0, 10.0
	lcmLogKapLo, lcmLogKapHi     = math.Log(1e-8), math.Log(100.0)
	lcmLogNoiseLo, lcmLogNoiseHi = math.Log(1e-8), math.Log(1.0)
)

// nllGrad computes the penalized negative log marginal likelihood of
// the stacked standardized targets plus its analytic gradient. The
// returned gradient slice is freshly allocated (the L-BFGS driver
// retains it across iterations); all large intermediates live in sc,
// which must be private to the calling goroutine. The parallel stages
// write index-disjoint state with fixed per-index summation order, so
// the result is bit-identical for every worker count.
func (m *Model) nllGrad(ys []float64, theta []float64, workers int, sc *fitScratch) (float64, []float64) {
	n := len(ys)
	grad := make([]float64, len(theta))
	penalty := 0.0
	pen := func(idx int, lo, hi float64) {
		const w = 10
		v := theta[idx]
		if v < lo {
			penalty += w * (lo - v) * (lo - v)
			grad[idx] += -2 * w * (lo - v)
		} else if v > hi {
			penalty += w * (v - hi) * (v - hi)
			grad[idx] += 2 * w * (v - hi)
		}
	}
	idx := 0
	for q := 0; q < m.q; q++ {
		for d := 0; d < m.dim; d++ {
			pen(idx, lcmLogLenLo, lcmLogLenHi)
			idx++
		}
		for t := 0; t < m.numTasks; t++ {
			pen(idx, lcmALo, lcmAHi)
			idx++
		}
		for t := 0; t < m.numTasks; t++ {
			pen(idx, lcmLogKapLo, lcmLogKapHi)
			idx++
		}
	}
	for t := 0; t < m.numTasks; t++ {
		pen(idx, lcmLogNoiseLo, lcmLogNoiseHi)
		idx++
	}

	// Unpack into reusable locals.
	ps := sc.params
	ps.unpack(theta)

	// Base latent kernel matrices and their length-scale gradients
	// (row-parallel inside MatrixGradsInto).
	baseK := sc.baseK // k_q(x_a, x_b)
	baseG := sc.baseG // per loglen dimension (+ unused variance slot)
	for q := 0; q < m.q; q++ {
		m.kerns[q].MatrixGradsInto(m.x, ps.hyper[q], baseK[q], baseG[q], workers)
	}
	// Coregionalization blocks B_q (tiny, serial).
	bq := sc.bq
	for q := 0; q < m.q; q++ {
		B := bq[q]
		for i := 0; i < m.numTasks; i++ {
			for j := 0; j < m.numTasks; j++ {
				B.Set(i, j, ps.bAt(q, i, j))
			}
		}
	}
	// Assemble the stacked covariance row-parallel: each row is owned by
	// one worker and accumulated in a fixed (q, b) order.
	K := sc.K
	parallel.For(n, workers, func(a int) {
		krow := K.Row(a)
		for b := range krow {
			krow[b] = 0
		}
		ta := m.task[a]
		for q := 0; q < m.q; q++ {
			ka := baseK[q].Row(a)
			B := bq[q]
			for b := 0; b < n; b++ {
				krow[b] += B.At(ta, m.task[b]) * ka[b]
			}
		}
		krow[a] += math.Exp(ps.logNoise[ta])
	})
	ch, err := linalg.NewCholesky(K)
	if err != nil {
		return math.Inf(1), grad
	}
	alpha := ch.SolveVec(ys)
	nll := 0.5*linalg.Dot(ys, alpha) + 0.5*ch.LogDet() + 0.5*float64(n)*math.Log(2*math.Pi)

	// W = K⁻¹ − α·αᵀ ; gradient g_p = 0.5 Σ_ab W[ab]·dK_p[ab].
	W := ch.Inverse()
	parallel.For(n, workers, func(a int) {
		wa := W.Row(a)
		aa := alpha[a]
		for b := 0; b < n; b++ {
			wa[b] -= aa * alpha[b]
		}
	})

	// The packed parameters are independent reductions over W, so the
	// fan-out is per parameter index; each one keeps the serial (a, b)
	// summation order.
	qBlock := m.dim + 2*m.numTasks
	noiseBase := m.q * qBlock
	parallel.For(len(theta), workers, func(p int) {
		if p >= noiseBase {
			// Noise: dK/dlogσ_t² = σ_t²·diag(task == t).
			t := p - noiseBase
			nv := math.Exp(ps.logNoise[t])
			var s float64
			for a := 0; a < n; a++ {
				if m.task[a] == t {
					s += W.At(a, a)
				}
			}
			grad[p] += 0.5 * nv * s
			return
		}
		q := p / qBlock
		switch r := p % qBlock; {
		case r < m.dim:
			// Length scales.
			d := r
			var s float64
			G := baseG[q][d]
			B := bq[q]
			for a := 0; a < n; a++ {
				wa := W.Row(a)
				ga := G.Row(a)
				ta := m.task[a]
				for b := 0; b < n; b++ {
					s += wa[b] * B.At(ta, m.task[b]) * ga[b]
				}
			}
			grad[p] += 0.5 * s
		case r < m.dim+m.numTasks:
			// a_q weights: dB[i,j]/da[t] = δ(i=t)a[j] + δ(j=t)a[i];
			// by symmetry of W and baseK,
			// g = Σ_{a:ta=t} Σ_b W[ab]·a_q[tb]·k_q[ab].
			t := r - m.dim
			var s float64
			for a := 0; a < n; a++ {
				if m.task[a] != t {
					continue
				}
				wa := W.Row(a)
				ka := baseK[q].Row(a)
				for b := 0; b < n; b++ {
					s += wa[b] * ps.aq[q][m.task[b]] * ka[b]
				}
			}
			grad[p] += s // the 0.5 cancels with the factor 2 from symmetry
		default:
			// κ_q: dB[i,j]/dlogκ[t] = δ(i=j=t)·κ_t.
			t := r - m.dim - m.numTasks
			kap := math.Exp(ps.logKappa[q][t])
			var s float64
			for a := 0; a < n; a++ {
				if m.task[a] != t {
					continue
				}
				wa := W.Row(a)
				ka := baseK[q].Row(a)
				for b := 0; b < n; b++ {
					if m.task[b] == t {
						s += wa[b] * ka[b]
					}
				}
			}
			grad[p] += 0.5 * kap * s
		}
	})
	return nll + penalty, grad
}

func (m *Model) factorize(ys []float64, workers int) error {
	n := len(ys)
	K := linalg.NewMatrix(n, n)
	for q := 0; q < m.q; q++ {
		Kq := m.kerns[q].MatrixWorkers(m.x, m.hyper[q], workers)
		parallel.For(n, workers, func(a int) {
			ta := m.task[a]
			row := K.Row(a)
			kqa := Kq.Row(a)
			for b := 0; b < n; b++ {
				row[b] += m.bAt(q, ta, m.task[b]) * kqa[b]
			}
		})
	}
	for a := 0; a < n; a++ {
		K.Add(a, a, math.Exp(m.logNoise[m.task[a]]))
	}
	ch, err := linalg.NewCholesky(K)
	if err != nil {
		return fmt.Errorf("lcm: covariance factorization failed: %w", err)
	}
	m.chol = ch
	m.alpha = ch.SolveVec(ys)
	return nil
}

// bAt returns B_q[i, j] = a_q[i]·a_q[j] + δ_ij·κ_q[i].
func (p *lcmParams) bAt(q, i, j int) float64 {
	v := p.aq[q][i] * p.aq[q][j]
	if i == j {
		v += math.Exp(p.logKappa[q][i])
	}
	return v
}

// NumTasks returns the number of tasks the model was trained over.
func (m *Model) NumTasks() int { return m.numTasks }

// Dim returns the input dimension.
func (m *Model) Dim() int { return m.dim }

// Predict returns the posterior mean and standard deviation for task t
// at input x, in the task's original output units. The variance is
// prior − ‖L⁻¹k‖², one forward substitution. A task index outside
// the trained range returns an error — crowd-supplied indices must not
// be able to crash a long tuning session.
func (m *Model) Predict(t int, x []float64) (mean, std float64, err error) {
	if t < 0 || t >= m.numTasks {
		return 0, 0, fmt.Errorf("lcm: task %d out of range [0, %d)", t, m.numTasks)
	}
	if len(x) != m.dim {
		return 0, 0, fmt.Errorf("lcm: input has dimension %d, want %d", len(x), m.dim)
	}
	buf, _ := m.predictPool.Get().(*[]float64)
	if buf == nil {
		b := make([]float64, len(m.x)+m.q*m.numTasks)
		buf = &b
	}
	defer m.predictPool.Put(buf)
	// ks is the cross-covariance, then L⁻¹·ks in place; bt[q·T+s] is
	// B_q[t, s].
	ks, bt := (*buf)[:len(m.x)], (*buf)[len(m.x):]
	prior := 0.0
	for q := 0; q < m.q; q++ {
		for s := 0; s < m.numTasks; s++ {
			bt[q*m.numTasks+s] = m.bAt(q, t, s)
		}
		prior += bt[q*m.numTasks+t]
	}
	for b, xb := range m.x {
		var k float64
		for q, kern := range m.kerns {
			k += bt[q*m.numTasks+m.task[b]] * kern.Eval(x, xb, m.hyper[q])
		}
		ks[b] = k
	}
	mu := linalg.Dot(ks, m.alpha)
	m.chol.ForwardSolveInto(ks, ks)
	variance := prior - linalg.Dot(ks, ks)
	if variance < 1e-12 {
		variance = 1e-12
	}
	return m.meanY[t] + m.stdY[t]*mu, m.stdY[t] * math.Sqrt(variance), nil
}

// TaskCorrelation returns the model-implied correlation between tasks i
// and j, aggregated over the latent processes — a diagnostic for how
// much transfer the model has learned.
func (m *Model) TaskCorrelation(i, j int) float64 {
	var bij, bii, bjj float64
	for q := 0; q < m.q; q++ {
		bij += m.bAt(q, i, j)
		bii += m.bAt(q, i, i)
		bjj += m.bAt(q, j, j)
	}
	if bii <= 0 || bjj <= 0 {
		return 0
	}
	return bij / math.Sqrt(bii*bjj)
}
