package linalg

import (
	"errors"
	"fmt"
	"math"
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
	forwardSubstInto(c.L, b, x)
	backwardSubstTInto(c.L, x, x)
	return x
}

// ForwardSolveInto solves L·y = b into y (len n each; y may alias b).
// ‖y‖² = bᵀA⁻¹b, so a predictive variance needs only this half of a
// solve.
func (c *Cholesky) ForwardSolveInto(b, y []float64) {
	forwardSubstInto(c.L, b, y)
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

// Inverse returns A⁻¹ in LAPACK potri's shape: a copy of L is inverted
// in place, then overwritten by W = L⁻ᵀ·L⁻¹ on the lower half and
// mirrored, about 2n³/3 flops with every triangular read along a row.
// It is serial, so no worker count can change its bits; it is the
// per-iteration hot spot of the GP and LCM likelihood gradients.
func (c *Cholesky) Inverse() *Matrix {
	n := c.L.rows
	w := c.L.Clone()
	// Y = L⁻¹ by rows: y_i = (e_i − Σ_{k<i} L_ik·y_k) / L_ii, with row i
	// of L parked in li while row i of w accumulates y_i.
	li := make([]float64, n)
	for i := 0; i < n; i++ {
		yi := w.Row(i)[:i+1]
		copy(li, yi)
		clear(yi)
		for k, lik := range li[:i] {
			yk := w.Row(k)[:k+1]
			dst := yi[:len(yk)]
			for j, v := range yk {
				dst[j] -= lik * v
			}
		}
		inv := 1 / li[i]
		for j := range yi {
			yi[j] *= inv
		}
		yi[i] = inv
	}
	// W_ab = Σ_{k≥a} Y_ka·Y_kb for b ≤ a. Row a reads the lower halves
	// of rows k ≥ a only, so ascending a may overwrite Y with W in place
	// and mirror each finished row into the upper halves above it.
	for a := 0; a < n; a++ {
		wa := w.Row(a)[:a+1]
		yaa := wa[a]
		for j := range wa {
			wa[j] *= yaa
		}
		for k := a + 1; k < n; k++ {
			yk := w.Row(k)[:len(wa)]
			yka := yk[a]
			for j, v := range yk {
				wa[j] += yka * v
			}
		}
		for b, v := range wa[:a] {
			w.data[b*n+a] = v
		}
	}
	return w
}

// forwardSubstInto solves L·y = b into y for lower-triangular L; y may
// alias b.
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

// backwardSubstTInto solves Lᵀ·x = y into x for lower-triangular L;
// x may alias y. Each solved x_k is eliminated with an axpy along row k
// of L, so L is read by rows.
func backwardSubstTInto(l *Matrix, y, x []float64) {
	n := l.rows
	if len(y) != n || len(x) != n {
		panic("linalg: backward substitution dimension mismatch")
	}
	copy(x, y)
	for k := n - 1; k >= 0; k-- {
		row := l.Row(k)
		xk := x[k] / row[k]
		x[k] = xk
		for i, v := range row[:k] {
			x[i] -= v * xk
		}
	}
}
