// Package sgp implements a sparse Gaussian process with m ≪ n inducing
// points (the DTC/subset-of-regressors approximation): fitting costs
// O(n·m²) and each prediction O(m²), against O(n³)/O(n²) for the exact
// GP, which makes GP-quality posteriors tractable on crowd histories
// with 100k+ samples.
//
// Hyperparameters come from an exact-GP fit on a deterministic
// subsample; inducing points are chosen by greedy farthest-point
// selection over the training inputs. With Z = X the DTC posterior
// collapses algebraically to the exact GP posterior (both mean and
// variance), which anchors the package's agreement tests.
package sgp

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"gptunecrowd/internal/gp"
	"gptunecrowd/internal/kernel"
	"gptunecrowd/internal/linalg"
	"gptunecrowd/internal/parallel"
	"gptunecrowd/internal/stat"
)

// ErrNoData is returned when fitting with zero observations.
var ErrNoData = errors.New("sgp: no training data")

// Options configures a sparse-GP fit.
type Options struct {
	// MaxInducing caps the inducing-point count m (default 128). The
	// fit uses min(MaxInducing, n) points.
	MaxInducing int
	// HyperSubsample caps the exact-GP hyperparameter fit to a
	// deterministic evenly-strided subsample of this size (default 256).
	HyperSubsample int

	Kernel      kernel.Type
	Categorical []bool
	Restarts    int
	MaxIter     int
	Seed        int64
}

func (o *Options) defaults() {
	if o.MaxInducing <= 0 {
		o.MaxInducing = 128
	}
	if o.HyperSubsample <= 0 {
		o.HyperSubsample = 256
	}
}

// SGP is a fitted sparse Gaussian process.
type SGP struct {
	kern     *kernel.Kernel
	hyper    *kernel.Hyper
	noiseVar float64 // standardized units

	z       [][]float64 // inducing points
	cholKuu *linalg.Cholesky
	cholA   *linalg.Cholesky // A = Kuu + σ⁻²·Kuf·Kfu
	b       []float64        // Kuf·ys, maintained across Observe
	alpha   []float64        // σ⁻²·A⁻¹·b

	meanY, stdY float64
	n           int // training observations folded in
	observed    int // Observe calls since Fit

	predictPool sync.Pool
}

type predictScratch struct {
	ku, v, ell []float64
}

// Fit trains a sparse GP on inputs X (rows in the unit hypercube) and
// targets y.
func Fit(X [][]float64, y []float64, opts Options) (*SGP, error) {
	opts.defaults()
	n := len(X)
	if n == 0 {
		return nil, ErrNoData
	}
	if len(y) != n {
		return nil, fmt.Errorf("sgp: %d inputs but %d targets", n, len(y))
	}

	// Hyperparameters from an exact fit on an evenly-strided subsample:
	// deterministic, and O(s³) for s = HyperSubsample regardless of n.
	sub := subsampleIndices(n, opts.HyperSubsample)
	subX := make([][]float64, len(sub))
	subY := make([]float64, len(sub))
	for i, idx := range sub {
		subX[i] = X[idx]
		subY[i] = y[idx]
	}
	eg, err := gp.Fit(subX, subY, gp.Options{
		Kernel: opts.Kernel, Categorical: opts.Categorical,
		Restarts: opts.Restarts, MaxIter: opts.MaxIter,
		Seed: opts.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("sgp: hyperparameter fit: %w", err)
	}

	m := opts.MaxInducing
	if m > n {
		m = n
	}
	Z := farthestPoints(X, m)
	dim := len(X[0])
	kt := opts.Kernel
	if kt == kernel.Auto {
		kt = kernel.Matern52 // mirror gp.Fit's default
	}
	kern := &kernel.Kernel{Type: kt, Dim: dim, Categorical: opts.Categorical}
	return FitFixed(X, y, kern, eg.Hyper(), eg.NoiseVar(), Z)
}

// FitFixed builds a sparse GP with given hyperparameters, noise
// variance (standardized units) and inducing points Z — the test and
// refit entry point that skips hyperparameter optimization.
func FitFixed(X [][]float64, y []float64, kern *kernel.Kernel, hyper *kernel.Hyper, noiseVar float64, Z [][]float64) (*SGP, error) {
	n := len(X)
	if n == 0 || len(Z) == 0 {
		return nil, ErrNoData
	}
	if len(y) != n {
		return nil, fmt.Errorf("sgp: %d inputs but %d targets", n, len(y))
	}
	m := len(Z)
	if noiseVar < 1e-10 {
		noiseVar = 1e-10
	}
	mean, sd, ys := stat.Standardize(y)
	s := &SGP{kern: kern, hyper: hyper, noiseVar: noiseVar, z: Z, meanY: mean, stdY: sd, n: n}

	kuu := kern.Matrix(Z, hyper)
	cholKuu, err := linalg.NewCholesky(kuu)
	if err != nil {
		return nil, fmt.Errorf("sgp: Kuu factorization: %w", err)
	}
	kuf := kern.CrossMatrixWorkers(Z, X, hyper, 0)

	// A = Kuu + σ⁻²·Kuf·Kfu, assembled from length-n row dots so each
	// entry has a fixed summation order (bit-identical across workers).
	a := linalg.NewMatrix(m, m)
	invNoise := 1 / noiseVar
	parallel.For(m, 0, func(i int) {
		ri := kuf.Row(i)
		for j := i; j < m; j++ {
			v := kuu.At(i, j) + invNoise*linalg.Dot(ri, kuf.Row(j))
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	})
	cholA, err := linalg.NewCholesky(a)
	if err != nil {
		return nil, fmt.Errorf("sgp: A factorization: %w", err)
	}

	b := make([]float64, m)
	for i := 0; i < m; i++ {
		b[i] = linalg.Dot(kuf.Row(i), ys)
	}

	s.cholKuu = cholKuu
	s.cholA = cholA
	s.b = b
	s.refreshAlpha()
	s.predictPool.New = func() interface{} {
		return &predictScratch{ku: make([]float64, m), v: make([]float64, m), ell: make([]float64, kern.Dim)}
	}
	return s, nil
}

func (s *SGP) refreshAlpha() {
	alpha := s.cholA.SolveVec(s.b)
	inv := 1 / s.noiseVar
	for i := range alpha {
		alpha[i] *= inv
	}
	s.alpha = alpha
}

// Observe folds one new observation into the posterior with an O(m²)
// rank-1 Cholesky update of A and a refreshed information vector — no
// refactorization and no growth in model size. The target is
// standardized with the scale fixed at Fit time.
func (s *SGP) Observe(x []float64, y float64) error {
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return fmt.Errorf("sgp: non-finite observation %v", y)
	}
	m := len(s.z)
	buf := make([]float64, m+s.kern.Dim) // k(x, ·), then the kernel's length-scale scratch
	ku := buf[:m]
	s.kern.RowInto(x, s.z, s.hyper, ku, buf[m:])
	ysNew := (y - s.meanY) / s.stdY
	// A += σ⁻²·ku·kuᵀ  ⇔  rank-1 update with v = ku/σ.
	v := make([]float64, m)
	invSigma := 1 / math.Sqrt(s.noiseVar)
	for i, k := range ku {
		v[i] = k * invSigma
	}
	s.cholA.Update(v)
	for i, k := range ku {
		s.b[i] += k * ysNew
	}
	s.refreshAlpha()
	s.n++
	s.observed++
	return nil
}

// ObservedSinceFit reports how many Observe updates have been folded
// in since the last full Fit.
func (s *SGP) ObservedSinceFit() int { return s.observed }

// NumInducing returns the inducing-point count m.
func (s *SGP) NumInducing() int { return len(s.z) }

// NumSamples returns the number of observations folded into the model.
func (s *SGP) NumSamples() int { return s.n }

// Hyper returns the hyperparameters (shared storage).
func (s *SGP) Hyper() *kernel.Hyper { return s.hyper }

// NoiseVar returns the noise variance in standardized units.
func (s *SGP) NoiseVar() float64 { return s.noiseVar }

// Predict returns the DTC posterior mean and standard deviation of the
// latent function at x, in original target units. Safe for concurrent
// use; per-call buffers come from an internal pool.
func (s *SGP) Predict(x []float64) (mean, std float64) {
	sc := s.predictPool.Get().(*predictScratch)
	defer s.predictPool.Put(sc)
	ku := sc.ku
	s.kern.RowInto(x, s.z, s.hyper, ku, sc.ell)
	mu := linalg.Dot(ku, s.alpha)
	// var = k** − k*ᵀ·Kuu⁻¹·k* + k*ᵀ·A⁻¹·k*, each quadratic form the
	// squared norm of one forward substitution.
	s.cholKuu.ForwardSolveInto(ku, sc.v)
	variance := s.kern.Diag(s.hyper) - linalg.Dot(sc.v, sc.v)
	s.cholA.ForwardSolveInto(ku, sc.v)
	variance += linalg.Dot(sc.v, sc.v)
	if variance < 1e-12 {
		variance = 1e-12
	}
	return s.meanY + s.stdY*mu, s.stdY * math.Sqrt(variance)
}

// PredictBatchInto fills means and stds for every row of X. Each slot
// is written by exactly one worker, so results are bit-identical for
// every worker count.
func (s *SGP) PredictBatchInto(X [][]float64, means, stds []float64, workers int) {
	if len(means) != len(X) || len(stds) != len(X) {
		panic(fmt.Sprintf("sgp: PredictBatchInto output length %d/%d, want %d", len(means), len(stds), len(X)))
	}
	parallel.For(len(X), workers, func(i int) {
		means[i], stds[i] = s.Predict(X[i])
	})
}

// subsampleIndices returns up to max evenly-strided indices over n
// rows — deterministic, order-preserving.
func subsampleIndices(n, max int) []int {
	if n <= max {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	idx := make([]int, max)
	for i := range idx {
		idx[i] = i * (n - 1) / (max - 1)
	}
	return idx
}

// farthestPoints picks m inducing points from X by greedy farthest-
// point selection: start from row 0, then repeatedly add the point
// with the largest distance to the chosen set (ties broken by lowest
// index, so the result is deterministic for every worker count).
func farthestPoints(X [][]float64, m int) [][]float64 {
	n := len(X)
	if m >= n {
		return X
	}
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	chosen := make([][]float64, 0, m)
	next := 0
	for len(chosen) < m {
		p := X[next]
		chosen = append(chosen, p)
		parallel.For(n, 0, func(i int) {
			if d := sqDist(X[i], p); d < minDist[i] {
				minDist[i] = d
			}
		})
		best, bestD := -1, -1.0
		for i, d := range minDist {
			if d > bestD {
				best, bestD = i, d
			}
		}
		next = best
	}
	return chosen
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
