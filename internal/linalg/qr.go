package linalg

import (
	"errors"
	"math"
)

// ErrSingular is returned by least-squares solvers when the system is
// numerically rank deficient beyond the requested regularization.
var ErrSingular = errors.New("linalg: singular system")

// QR holds a Householder QR factorization of an m×n matrix (m >= n).
// The Householder vectors are stored in the (sub)diagonal part of qr
// (including the diagonal slot), and the diagonal of R is kept
// separately in rdiag, following the classic JAMA layout.
type QR struct {
	qr    *Matrix
	rdiag []float64
}

// NewQR factorizes a (m >= n required). a is not modified.
func NewQR(a *Matrix) *QR {
	m, n := a.rows, a.cols
	if m < n {
		panic("linalg: QR requires rows >= cols")
	}
	w := a.Clone()
	rdiag := make([]float64, n)
	for k := 0; k < n; k++ {
		var nrm float64
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, w.At(i, k))
		}
		if nrm != 0 {
			if w.At(k, k) < 0 {
				nrm = -nrm
			}
			for i := k; i < m; i++ {
				w.Set(i, k, w.At(i, k)/nrm)
			}
			w.Set(k, k, w.At(k, k)+1)
			for j := k + 1; j < n; j++ {
				var s float64
				for i := k; i < m; i++ {
					s += w.At(i, k) * w.At(i, j)
				}
				s = -s / w.At(k, k)
				for i := k; i < m; i++ {
					w.Set(i, j, w.At(i, j)+s*w.At(i, k))
				}
			}
		}
		rdiag[k] = -nrm
	}
	return &QR{qr: w, rdiag: rdiag}
}

// Solve returns the least-squares solution of a·x = b for the factorized
// matrix. Returns ErrSingular when R has a (near-)zero diagonal.
func (f *QR) Solve(b []float64) ([]float64, error) {
	m, n := f.qr.rows, f.qr.cols
	if len(b) != m {
		panic("linalg: QR.Solve dimension mismatch")
	}
	for _, d := range f.rdiag {
		if math.Abs(d) < 1e-14 {
			return nil, ErrSingular
		}
	}
	y := CopyVec(b)
	// y = Qᵀ·b via the stored Householder reflectors.
	for k := 0; k < n; k++ {
		if f.qr.At(k, k) == 0 {
			continue
		}
		var s float64
		for i := k; i < m; i++ {
			s += f.qr.At(i, k) * y[i]
		}
		s = -s / f.qr.At(k, k)
		for i := k; i < m; i++ {
			y[i] += s * f.qr.At(i, k)
		}
	}
	// Back substitution with R (strict upper triangle of qr + rdiag).
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		x[i] = subDot(y[i], f.qr.Row(i)[i+1:], x[i+1:]) / f.rdiag[i]
	}
	return x, nil
}

// LeastSquares solves min‖a·x − b‖₂ via QR.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	return NewQR(a).Solve(b)
}

// RidgeLeastSquares solves min‖a·x − b‖² + λ‖x‖² by augmenting the
// system with √λ·I rows, which keeps the QR path well conditioned even
// for collinear designs (the WeightedSum(dynamic) weight solve).
func RidgeLeastSquares(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	if lambda < 0 {
		panic("linalg: negative ridge parameter")
	}
	m, n := a.rows, a.cols
	aug := NewMatrix(m+n, n)
	for i := 0; i < m; i++ {
		copy(aug.Row(i), a.Row(i))
	}
	s := math.Sqrt(lambda)
	for i := 0; i < n; i++ {
		aug.Set(m+i, i, s)
	}
	bb := make([]float64, m+n)
	copy(bb, b)
	return LeastSquares(aug, bb)
}
