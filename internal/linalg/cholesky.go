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
		lrowj := l.Row(j)
		lj := lrowj[:j]
		d := subDot(a.At(j, j)+jitter, lj, lj)
		if d <= 0 || math.IsNaN(d) {
			return nil, false
		}
		d = math.Sqrt(d)
		lrowj[j] = d
		inv := 1 / d
		i := j + 1
		for ; i+3 < n; i += 4 {
			r0, r1, r2, r3 := l.Row(i), l.Row(i+1), l.Row(i+2), l.Row(i+3)
			s0, s1, s2, s3 := subDot4(a.At(i, j), a.At(i+1, j), a.At(i+2, j), a.At(i+3, j), r0, r1, r2, r3, lj)
			r0[j], r1[j], r2[j], r3[j] = s0*inv, s1*inv, s2*inv, s3*inv
		}
		for ; i < n; i++ {
			lrowi := l.Row(i)
			lrowi[j] = subDot(a.At(i, j), lrowi, lj) * inv
		}
	}
	return l, true
}

// subDot returns s − Σ_k r[k]·v[k], subtracting in ascending k.
func subDot(s float64, r, v []float64) float64 {
	r = r[:len(v)]
	for k, x := range v {
		s -= r[k] * x
	}
	return s
}

// subDot4 is subDot for four rows against one v: each row keeps its own
// accumulator and its exact subtraction order, so every result is bit
// for bit subDot's while the four dependency chains overlap. The
// triangular kernels block over independent rows this way and never
// split or reorder one sum.
func subDot4(s0, s1, s2, s3 float64, r0, r1, r2, r3, v []float64) (float64, float64, float64, float64) {
	r0, r1, r2, r3 = r0[:len(v)], r1[:len(v)], r2[:len(v)], r3[:len(v)]
	for k, x := range v {
		s0 -= r0[k] * x
		s1 -= r1[k] * x
		s2 -= r2[k] * x
		s3 -= r3[k] * x
	}
	return s0, s1, s2, s3
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
	// Four rows per pass over the solved prefix y[:i], then the 4×4
	// triangle in row order.
	i := 0
	for ; i+3 < n; i += 4 {
		r0, r1, r2, r3 := l.Row(i), l.Row(i+1), l.Row(i+2), l.Row(i+3)
		s0, s1, s2, s3 := subDot4(b[i], b[i+1], b[i+2], b[i+3], r0, r1, r2, r3, y[:i])
		y0 := s0 / r0[i]
		s1 -= r1[i] * y0
		y1 := s1 / r1[i+1]
		s2 -= r2[i] * y0
		s2 -= r2[i+1] * y1
		y2 := s2 / r2[i+2]
		s3 -= r3[i] * y0
		s3 -= r3[i+1] * y1
		s3 -= r3[i+2] * y2
		y[i], y[i+1], y[i+2], y[i+3] = y0, y1, y2, s3/r3[i+3]
	}
	for ; i < n; i++ {
		row := l.Row(i)
		y[i] = subDot(b[i], row, y[:i]) / row[i]
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
