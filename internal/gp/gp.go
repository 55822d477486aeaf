// Package gp implements exact Gaussian-process regression: the surrogate
// performance model at the heart of the Bayesian-optimization tuner.
// Targets are standardized internally; hyperparameters (ARD length
// scales, signal variance, noise variance) are fitted by multi-start
// L-BFGS on the exact negative log marginal likelihood with analytic
// gradients.
package gp

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

// ErrNoData is returned when fitting with zero observations.
var ErrNoData = errors.New("gp: no training data")

// Options configures a GP fit.
type Options struct {
	Kernel      kernel.Type // covariance family (default Matern52)
	Categorical []bool      // per-dimension categorical flags (Hamming distance)
	Restarts    int         // multi-start count (default 2; 0 means default)
	MaxIter     int         // L-BFGS iterations per start (default 60)
	Seed        int64       // RNG seed for restarts
	// Workers bounds the parallelism of the fit (restart fan-out, kernel
	// matrix assembly, gradient reduction). <= 0 means the engine default:
	// GPTUNE_WORKERS when set, else GOMAXPROCS. Results are bit-identical
	// for every worker count at a fixed Seed.
	Workers int
}

// GP is a fitted Gaussian-process model.
type GP struct {
	kern   *kernel.Kernel
	hyper  *kernel.Hyper
	lnoise float64 // log noise variance (standardized units)

	x     [][]float64
	ys    []float64 // standardized targets, kept for incremental updates
	alpha []float64
	chol  *linalg.Cholesky

	meanY, stdY float64
	nll         float64
	observed    int // Observe calls since the last full factorization

	// predictPool recycles the per-call cross-covariance buffer (a
	// *[]float64) so that Predict is both allocation-flat and safe to
	// call from many goroutines.
	predictPool sync.Pool
}

// hyperparameter box (log space, standardized targets, unit-cube inputs).
var (
	logLenLo, logLenHi     = math.Log(0.01), math.Log(100.0)
	logVarLo, logVarHi     = math.Log(1e-6), math.Log(1e4)
	logNoiseLo, logNoiseHi = math.Log(1e-8), math.Log(1.0)
)

// Fit trains a GP on inputs X (rows in the unit hypercube) and targets y.
func Fit(X [][]float64, y []float64, opts Options) (*GP, error) {
	if err := checkData(X, y); err != nil {
		return nil, err
	}
	n, dim := len(X), len(X[0])
	if opts.Restarts <= 0 {
		opts.Restarts = 2
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 60
	}
	if opts.Kernel == kernel.Auto {
		opts.Kernel = kernel.Matern52
	}
	mean, sd, ys := stat.Standardize(y)

	kern := &kernel.Kernel{Type: opts.Kernel, Dim: dim, Categorical: opts.Categorical}
	g := &GP{kern: kern, x: X, meanY: mean, stdY: sd}

	np := dim + 2 // log lengths, log var, log noise var
	// Start points are drawn up-front from a single seeded stream, so the
	// restart fan-out below cannot perturb them.
	rng := rand.New(rand.NewSource(opts.Seed))
	starts := make([][]float64, 0, opts.Restarts)
	base := make([]float64, np)
	base[dim] = 0                // log var = 0 (unit signal on standardized data)
	base[dim+1] = math.Log(1e-3) // modest noise floor
	starts = append(starts, base)
	for len(starts) < opts.Restarts {
		s := make([]float64, np)
		for d := 0; d < dim; d++ {
			s[d] = math.Log(0.05) + rng.Float64()*(math.Log(2)-math.Log(0.05))
		}
		s[dim] = rng.NormFloat64() * 0.3
		s[dim+1] = math.Log(1e-4) + rng.Float64()*math.Log(1e3)
		starts = append(starts, s)
	}

	// Restarts run concurrently; each gets private scratch so objective
	// evaluations never contend, and the argmin reduction is ordered.
	best := optimize.MultiStartParallel(starts, opts.Workers, func(_ int, x0 []float64) optimize.Result {
		sc := newFitScratch(dim, n)
		obj := func(theta []float64) (float64, []float64) {
			return g.nllGrad(ys, theta, opts.Workers, sc)
		}
		return optimize.LBFGS(obj, x0, optimize.LBFGSConfig{MaxIter: opts.MaxIter})
	})

	g.hyper = kernel.NewHyper(dim)
	g.hyper.Unpack(best.X[:dim+1])
	g.lnoise = clamp(best.X[dim+1], logNoiseLo, logNoiseHi)
	clampHyper(g.hyper)
	g.nll = best.F
	if err := g.factorize(ys); err != nil {
		return nil, err
	}
	return g, nil
}

// FitFixed builds a GP with the given hyperparameters without any
// optimization — used by tests and by surrogate stacking, where the
// residual model reuses a known scale.
func FitFixed(X [][]float64, y []float64, kern *kernel.Kernel, hyper *kernel.Hyper, noiseVar float64) (*GP, error) {
	return fitFixed(X, y, kern, hyper, math.Log(math.Max(noiseVar, 1e-10)))
}

// fitFixed factorizes the covariance under fixed hyperparameters and a
// log noise variance in standardized units — the path shared by
// FitFixed and Restore.
func fitFixed(X [][]float64, y []float64, kern *kernel.Kernel, hyper *kernel.Hyper, lnoise float64) (*GP, error) {
	if err := checkData(X, y); err != nil {
		return nil, err
	}
	mean, sd, ys := stat.Standardize(y)
	g := &GP{kern: kern, hyper: hyper, lnoise: lnoise, x: X, meanY: mean, stdY: sd}
	if err := g.factorize(ys); err != nil {
		return nil, err
	}
	return g, nil
}

// checkData rejects empty, mismatched, ragged or non-finite training
// data — crowd-fed histories can carry NaN/Inf that would silently
// poison the Cholesky.
func checkData(X [][]float64, y []float64) error {
	if len(X) == 0 {
		return ErrNoData
	}
	if len(y) != len(X) {
		return fmt.Errorf("gp: %d inputs but %d targets", len(X), len(y))
	}
	dim := len(X[0])
	for i, x := range X {
		if len(x) != dim {
			return fmt.Errorf("gp: input %d has dimension %d, want %d", i, len(x), dim)
		}
		for j, c := range x {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return fmt.Errorf("gp: input %d coordinate %d is not finite (%v)", i, j, c)
			}
		}
	}
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("gp: target %d is not finite (%v)", i, v)
		}
	}
	return nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampHyper(h *kernel.Hyper) {
	for d := range h.LogLength {
		h.LogLength[d] = clamp(h.LogLength[d], logLenLo, logLenHi)
	}
	h.LogVar = clamp(h.LogVar, logVarLo, logVarHi)
}

// fitScratch holds the buffers one optimizer run reuses across
// objective evaluations: the kernel Gram matrix and its per-parameter
// derivative matrices dominate the fit loop's allocation churn.
type fitScratch struct {
	h   *kernel.Hyper
	K   *linalg.Matrix
	dKs []*linalg.Matrix
}

func newFitScratch(dim, n int) *fitScratch {
	sc := &fitScratch{h: kernel.NewHyper(dim), K: linalg.NewMatrix(n, n)}
	sc.dKs = make([]*linalg.Matrix, dim+1)
	for p := range sc.dKs {
		sc.dKs[p] = linalg.NewMatrix(n, n)
	}
	return sc
}

// nllGrad evaluates the penalized negative log marginal likelihood and
// its gradient with respect to theta = [logLen..., logVar, logNoiseVar].
// The returned gradient slice is freshly allocated (the L-BFGS driver
// retains it across iterations); all large intermediates live in sc,
// which must be private to the calling goroutine.
func (g *GP) nllGrad(ys []float64, theta []float64, workers int, sc *fitScratch) (float64, []float64) {
	dim := g.kern.Dim
	n := len(ys)
	h := sc.h
	h.Unpack(theta[:dim+1])
	logNoise := theta[dim+1]
	grad := make([]float64, dim+2)

	// Box penalty keeps L-BFGS inside sane hyperparameter ranges.
	penalty := 0.0
	pen := func(idx int, v, lo, hi float64) float64 {
		const w = 10
		if v < lo {
			penalty += w * (lo - v) * (lo - v)
			grad[idx] += -2 * w * (lo - v)
		} else if v > hi {
			penalty += w * (v - hi) * (v - hi)
			grad[idx] += 2 * w * (v - hi)
		}
		return v
	}
	for d := 0; d < dim; d++ {
		pen(d, theta[d], logLenLo, logLenHi)
	}
	pen(dim, theta[dim], logVarLo, logVarHi)
	pen(dim+1, logNoise, logNoiseLo, logNoiseHi)

	K, dKs := sc.K, sc.dKs
	g.kern.MatrixGradsInto(g.x, h, K, dKs, workers)
	noiseVar := math.Exp(logNoise)
	K.AddDiag(noiseVar)
	ch, err := linalg.NewCholesky(K)
	if err != nil {
		// Not PD even with jitter: reject the point.
		return math.Inf(1), grad
	}
	alpha := ch.SolveVec(ys)
	nll := 0.5*linalg.Dot(ys, alpha) + 0.5*ch.LogDet() + 0.5*float64(n)*math.Log(2*math.Pi)

	Kinv := ch.Inverse()
	// d nll/dθ = 0.5·tr(K⁻¹ dK) − 0.5·αᵀ dK α. Parameters are
	// independent, so the reduction fans out over p; within one p the
	// summation order is fixed, and both Kinv and dK are symmetric, so
	// only the upper triangle is visited.
	parallel.For(dim+1, workers, func(p int) {
		dK := dKs[p]
		var tr, quad float64
		for i := 0; i < n; i++ {
			rowK := Kinv.Row(i)
			rowD := dK.Row(i)
			ai := alpha[i]
			var trOff, quadOff float64
			for j := i + 1; j < n; j++ {
				trOff += rowK[j] * rowD[j]
				quadOff += rowD[j] * alpha[j]
			}
			tr += rowK[i]*rowD[i] + 2*trOff
			quad += ai * (rowD[i]*ai + 2*quadOff)
		}
		grad[p] += 0.5*tr - 0.5*quad
	})
	// Noise gradient: dK/dlogNoiseVar = noiseVar·I.
	var trInv, aa float64
	for i := 0; i < n; i++ {
		trInv += Kinv.At(i, i)
		aa += alpha[i] * alpha[i]
	}
	grad[dim+1] += 0.5 * noiseVar * (trInv - aa)
	return nll + penalty, grad
}

func (g *GP) factorize(ys []float64) error {
	K := g.kern.Matrix(g.x, g.hyper)
	K.AddDiag(math.Exp(g.lnoise))
	ch, err := linalg.NewCholesky(K)
	if err != nil {
		return fmt.Errorf("gp: covariance factorization failed: %w", err)
	}
	g.chol = ch
	g.ys = ys
	g.alpha = ch.SolveVec(ys)
	g.observed = 0
	return nil
}

// crossCov fills a pooled buffer, grown if Observe has outgrown it, with
// k(x, x_i) over the training rows; the caller Puts it back.
func (g *GP) crossCov(x []float64) *[]float64 {
	buf, _ := g.predictPool.Get().(*[]float64)
	if buf == nil || cap(*buf) < len(g.x) {
		b := make([]float64, len(g.x))
		buf = &b
	}
	ks := (*buf)[:len(g.x)]
	for i, xi := range g.x {
		ks[i] = g.kern.Eval(x, xi, g.hyper)
	}
	*buf = ks
	return buf
}

// Dim returns the input dimension.
func (g *GP) Dim() int { return g.kern.Dim }

// NumSamples returns the number of training observations.
func (g *GP) NumSamples() int { return len(g.x) }

// NLL returns the fitted (penalized) negative log marginal likelihood.
func (g *GP) NLL() float64 { return g.nll }

// Hyper returns the fitted hyperparameters (shared storage).
func (g *GP) Hyper() *kernel.Hyper { return g.hyper }

// NoiseVar returns the fitted noise variance in standardized units.
func (g *GP) NoiseVar() float64 { return math.Exp(g.lnoise) }

// Predict returns the posterior mean and standard deviation of the
// latent function at x, in the original target units. The variance is
// prior − ‖L⁻¹k‖², one forward substitution. It is safe for concurrent
// use; per-call buffers come from an internal pool.
func (g *GP) Predict(x []float64) (mean, std float64) {
	buf := g.crossCov(x)
	defer g.predictPool.Put(buf)
	ks := *buf
	mu := linalg.Dot(ks, g.alpha)
	g.chol.ForwardSolveInto(ks, ks)
	variance := g.kern.Diag(g.hyper) - linalg.Dot(ks, ks)
	if variance < 1e-12 {
		variance = 1e-12
	}
	return g.meanY + g.stdY*mu, g.stdY * math.Sqrt(variance)
}

// PredictMean returns only the posterior mean at x.
func (g *GP) PredictMean(x []float64) float64 {
	buf := g.crossCov(x)
	defer g.predictPool.Put(buf)
	return g.meanY + g.stdY*linalg.Dot(*buf, g.alpha)
}

// PredictBatchInto evaluates Predict over the rows of X into
// caller-owned slices (len(X) each) with the given worker count (<= 0
// means the engine default) — the allocation-flat form used by the
// suggest hot path. Each output slot is written by exactly one worker,
// so results are bit-identical for every worker count.
func (g *GP) PredictBatchInto(X [][]float64, means, stds []float64, workers int) {
	if len(means) != len(X) || len(stds) != len(X) {
		panic(fmt.Sprintf("gp: PredictBatchInto output length %d/%d, want %d", len(means), len(stds), len(X)))
	}
	parallel.For(len(X), workers, func(i int) {
		means[i], stds[i] = g.Predict(X[i])
	})
}
