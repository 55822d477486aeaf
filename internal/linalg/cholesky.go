package linalg

import (
	"errors"
	"fmt"
	"math"

	"gptunecrowd/internal/parallel"
)

// ErrNotPositiveDefinite is returned when a Cholesky factorization fails
// even after the maximum jitter has been applied.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L·Lᵀ, plus the jitter that was added to the
// diagonal to achieve positive definiteness.
type Cholesky struct {
	L      *Matrix
	Jitter float64
}

// NewCholesky factorizes the symmetric matrix a (only the lower triangle
// is read). It does not modify a.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	return NewCholeskyJitter(a, 0)
}

// NewCholeskyJitter factorizes a, adding escalating diagonal jitter
// (starting at startJitter, or a scale-relative default when 0) whenever
// the factorization encounters a non-positive pivot. Gaussian-process
// covariance matrices are frequently near-singular when two inputs
// almost coincide, so adaptive jitter is the standard remedy.
func NewCholeskyJitter(a *Matrix, startJitter float64) (*Cholesky, error) {
	n := a.rows
	if a.cols != n {
		return nil, fmt.Errorf("linalg: Cholesky of non-square %dx%d matrix", a.rows, a.cols)
	}
	// Mean absolute diagonal sets the jitter scale.
	var diagScale float64
	for i := 0; i < n; i++ {
		diagScale += math.Abs(a.At(i, i))
	}
	if n > 0 {
		diagScale /= float64(n)
	}
	if diagScale == 0 {
		diagScale = 1
	}
	jitter := startJitter
	for attempt := 0; attempt < 12; attempt++ {
		l, ok := tryCholesky(a, jitter)
		if ok {
			return &Cholesky{L: l, Jitter: jitter}, nil
		}
		if jitter == 0 {
			jitter = diagScale * 1e-10
		} else {
			jitter *= 10
		}
	}
	return nil, ErrNotPositiveDefinite
}

func tryCholesky(a *Matrix, jitter float64) (*Matrix, bool) {
	n := a.rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j) + jitter
		lrowj := l.Row(j)
		for k := 0; k < j; k++ {
			d -= lrowj[k] * lrowj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, false
		}
		d = math.Sqrt(d)
		lrowj[j] = d
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			lrowi := l.Row(i)
			for k := 0; k < j; k++ {
				s -= lrowi[k] * lrowj[k]
			}
			lrowi[j] = s * inv
		}
	}
	return l, true
}

// SolveVec solves A·x = b given A = L·Lᵀ.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	x := make([]float64, len(b))
	tmp := make([]float64, len(b))
	c.SolveVecInto(b, x, tmp)
	return x
}

// SolveVecInto solves A·x = b into dst using tmp as scratch; all three
// slices must have length n and dst/tmp must not alias b. Hot loops
// (GP prediction, inverse columns) use it to avoid per-solve
// allocations.
func (c *Cholesky) SolveVecInto(b, dst, tmp []float64) {
	forwardSubstInto(c.L, b, tmp)
	backwardSubstTInto(c.L, tmp, dst)
}

// LogDet returns log|A| = 2·Σ log L_ii.
func (c *Cholesky) LogDet() float64 {
	var s float64
	n := c.L.rows
	for i := 0; i < n; i++ {
		s += math.Log(c.L.At(i, i))
	}
	return 2 * s
}

// Clone returns an independent deep copy of the factor. AppendRow and
// Update replace or mutate L in place, so a model that must absorb
// speculative updates without disturbing the original (the constant-liar
// batch path) clones the factor first.
func (c *Cholesky) Clone() *Cholesky {
	return &Cholesky{L: c.L.Clone(), Jitter: c.Jitter}
}

// InverseWorkers returns A⁻¹ with the independent unit-vector solves
// distributed over workers (<= 0 means the package default) — the
// per-iteration hot spot of the GP and LCM likelihood gradients.
func (c *Cholesky) InverseWorkers(workers int) *Matrix {
	n := c.L.rows
	inv := NewMatrix(n, n)
	type invScratch struct{ e, sol, tmp []float64 }
	parallel.ForEachWorker(n, workers, func() *invScratch {
		return &invScratch{e: make([]float64, n), sol: make([]float64, n), tmp: make([]float64, n)}
	}, func(sc *invScratch, j int) {
		for i := range sc.e {
			sc.e[i] = 0
		}
		sc.e[j] = 1
		c.SolveVecInto(sc.e, sc.sol, sc.tmp)
		for i := 0; i < n; i++ {
			inv.Set(i, j, sc.sol[i])
		}
	})
	return inv
}

// forwardSubstInto solves L·y = b into y for lower-triangular L.
func forwardSubstInto(l *Matrix, b, y []float64) {
	n := l.rows
	if len(b) != n || len(y) != n {
		panic("linalg: forward substitution dimension mismatch")
	}
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * y[k]
		}
		y[i] = s / row[i]
	}
}

// backwardSubstTInto solves Lᵀ·x = y into x for lower-triangular L.
func backwardSubstTInto(l *Matrix, y, x []float64) {
	n := l.rows
	if len(y) != n || len(x) != n {
		panic("linalg: backward substitution dimension mismatch")
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
}
