// Package kernel provides the covariance functions of the Gaussian
// process surrogates: ARD squared-exponential and Matérn 3/2 and 5/2
// kernels over the normalized unit hypercube, with a Hamming (0/1)
// distance on categorical dimensions and analytic gradients with
// respect to the log hyperparameters.
package kernel

import (
	"fmt"
	"math"

	"gptunecrowd/internal/linalg"
	"gptunecrowd/internal/parallel"
)

// Type selects the covariance family.
type Type int

const (
	// Auto lets the consumer pick a default family (the GP fitter maps
	// it to Matern52). It is the zero value so that zero-initialized
	// options get a sensible kernel.
	Auto Type = iota
	// RBF is the ARD squared-exponential kernel.
	RBF
	// Matern32 is the ARD Matérn kernel with ν = 3/2.
	Matern32
	// Matern52 is the ARD Matérn kernel with ν = 5/2.
	Matern52
)

// String names the kernel family.
func (t Type) String() string {
	switch t {
	case Auto:
		return "auto"
	case RBF:
		return "rbf"
	case Matern32:
		return "matern32"
	case Matern52:
		return "matern52"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// ParseType converts a kernel family name.
func ParseType(s string) (Type, error) {
	switch s {
	case "rbf", "se", "squared-exponential":
		return RBF, nil
	case "matern32":
		return Matern32, nil
	case "matern52":
		return Matern52, nil
	}
	return 0, fmt.Errorf("kernel: unknown type %q", s)
}

// Kernel is a stationary ARD kernel over dim coordinates. Categorical
// marks coordinates that use the Hamming (0/1) distance instead of the
// Euclidean difference, which makes the kernel respect the unordered
// nature of categorical tuning parameters.
type Kernel struct {
	Type        Type
	Dim         int
	Categorical []bool // nil means all-continuous
}

// New returns a kernel over dim continuous coordinates.
func New(t Type, dim int) *Kernel { return &Kernel{Type: t, Dim: dim} }

// Hyper packs the kernel hyperparameters in log space: one length scale
// per dimension plus the signal variance.
type Hyper struct {
	LogLength []float64 // log length scale per dimension
	LogVar    float64   // log signal variance (σ_f²)
}

// NewHyper returns unit hyperparameters for a dim-dimensional kernel.
func NewHyper(dim int) *Hyper {
	return &Hyper{LogLength: make([]float64, dim)}
}

// NumParams returns the number of packed hyperparameters.
func (h *Hyper) NumParams() int { return len(h.LogLength) + 1 }

// Unpack reads hyperparameters packed as [LogLength..., LogVar], the
// order the likelihood optimizers search in.
func (h *Hyper) Unpack(src []float64) {
	copy(h.LogLength, src[:len(h.LogLength)])
	h.LogVar = src[len(h.LogLength)]
}

// lengths fills ell (length Dim) with ℓ_d = exp(LogLength[d]). Every
// site computes ℓ once per call instead of once per pair, and never
// caches it in Hyper, so no site can read a length scale that is stale
// after Unpack or a clamp.
func (h *Hyper) lengths(ell []float64) []float64 {
	for d := range ell {
		ell[d] = h.Length(d)
	}
	return ell
}

// Length returns ℓ_d = exp(LogLength[d]), the value every kernel form
// computes for dimension d.
func (h *Hyper) Length(d int) float64 { return math.Exp(h.LogLength[d]) }

// scaledSq returns r² = Σ_d u_d, summed in dimension order.
func (k *Kernel) scaledSq(x, y, ell []float64) float64 {
	var r2 float64
	for d, l := range ell {
		r2 += k.ScaledSqTerm(x, y, d, l)
	}
	return r2
}

// ScaledSqTerm returns u_d = (dist_d / ℓ)², the d-th term of r², at
// ℓ = h.Length(d); with f from MatrixFactorInto, dk/dlogℓ_d = f·u_d.
// dist_d is x_d − y_d, or the Hamming 0/1 on a categorical dimension.
func (k *Kernel) ScaledSqTerm(x, y []float64, d int, l float64) float64 {
	var dist float64
	if k.Categorical != nil && k.Categorical[d] {
		if x[d] != y[d] {
			dist = 1
		}
	} else {
		dist = x[d] - y[d]
	}
	return (dist / l) * (dist / l) // not dist·(1/ℓ): that rounds differently
}

// profile returns k = σ²·g(r) at r² = r2, and the factor f with
// dk/dlogℓ_d = f·u_d.
func (k *Kernel) profile(r2, sf2 float64) (val, f float64) {
	switch k.Type {
	case RBF:
		// dk/dlogℓ_d = k·u_d
		val = sf2 * math.Exp(-0.5*r2)
		return val, val
	case Matern32:
		r := math.Sqrt(r2)
		e := math.Exp(-math.Sqrt(3) * r)
		// dk/dlogℓ_d = 3·σ²·u_d·e^{−√3 r}
		return sf2 * (1 + math.Sqrt(3)*r) * e, 3 * sf2 * e
	case Matern52:
		r := math.Sqrt(r2)
		e := math.Exp(-math.Sqrt(5) * r)
		// dk/dlogℓ_d = (5/3)·σ²·u_d·(1+√5 r)·e^{−√5 r}
		return sf2 * (1 + math.Sqrt(5)*r + 5*r2/3) * e, (5.0 / 3.0) * sf2 * (1 + math.Sqrt(5)*r) * e
	}
	panic("kernel: unknown type")
}

// Diag returns k(x, x), which for every supported stationary family is
// just the signal variance (r = 0) — a shortcut that skips the
// per-dimension distance loop on the Gram diagonal.
func (k *Kernel) Diag(h *Hyper) float64 { return math.Exp(h.LogVar) }

// row fills dst[i] = k(x, X[i]) from precomputed length scales.
func (k *Kernel) row(x []float64, X [][]float64, ell []float64, sf2 float64, dst []float64) {
	for i, xi := range X {
		dst[i], _ = k.profile(k.scaledSq(x, xi, ell), sf2)
	}
}

// RowInto fills dst[i] = k(x, X[i]) over the rows of X. ell is scratch
// of length Dim that receives the length scales, so a caller with
// pooled scratch evaluates a covariance row without allocating.
func (k *Kernel) RowInto(x []float64, X [][]float64, h *Hyper, dst, ell []float64) {
	k.row(x, X, h.lengths(ell), k.Diag(h), dst)
}

// Matrix returns the n×n Gram matrix over the rows of X, using the
// default worker count.
func (k *Kernel) Matrix(X [][]float64, h *Hyper) *linalg.Matrix {
	return k.MatrixWorkers(X, h, 0)
}

// MatrixWorkers is Matrix with an explicit worker count (<= 0 means the
// package default). Rows are distributed dynamically so the triangular
// workload stays balanced; each (i, j) pair is evaluated once and
// mirrored, and the diagonal uses the closed form Diag. The result is
// bit-identical for every worker count.
func (k *Kernel) MatrixWorkers(X [][]float64, h *Hyper, workers int) *linalg.Matrix {
	n := len(X)
	m := linalg.NewMatrix(n, n)
	k.MatrixInto(X, h, m, workers)
	return m
}

// MatrixInto fills the preallocated n×n matrix m with the Gram matrix
// (reused storage in fit loops).
func (k *Kernel) MatrixInto(X [][]float64, h *Hyper, m *linalg.Matrix, workers int) {
	n := len(X)
	ell, diag := h.lengths(make([]float64, k.Dim)), k.Diag(h)
	parallel.For(n, workers, func(i int) {
		row := m.Row(i)
		row[i] = diag
		k.row(X[i], X[i+1:], ell, diag, row[i+1:])
		for j := i + 1; j < n; j++ {
			m.Set(j, i, row[j])
		}
	})
}

// CrossMatrixWorkers returns the len(A)×len(B) covariance matrix
// between two point sets with the given worker count (<= 0 means the
// package default).
func (k *Kernel) CrossMatrixWorkers(A, B [][]float64, h *Hyper, workers int) *linalg.Matrix {
	m := linalg.NewMatrix(len(A), len(B))
	ell, sf2 := h.lengths(make([]float64, k.Dim)), k.Diag(h)
	parallel.For(len(A), workers, func(i int) {
		k.row(A[i], B, ell, sf2, m.Row(i))
	})
	return m
}

// MatrixFactorInto fills the preallocated n×n matrices K with the Gram
// matrix and F with each pair's profile factor f, dk/dlogℓ_d = f·u_d
// with u_d from ScaledSqTerm; F is mirrored and its diagonal is 0, and
// dk/dlogσ² is K itself. A likelihood gradient reads K and F and never
// builds a derivative matrix. Each pair is evaluated once and mirrored,
// so the result is bit-identical for every worker count.
func (k *Kernel) MatrixFactorInto(X [][]float64, h *Hyper, K, F *linalg.Matrix, workers int) {
	n := len(X)
	ell, diag := h.lengths(make([]float64, k.Dim)), k.Diag(h)
	parallel.For(n, workers, func(i int) {
		krow, frow := K.Row(i), F.Row(i)
		krow[i], frow[i] = diag, 0
		for j := i + 1; j < n; j++ {
			v, f := k.profile(k.scaledSq(X[i], X[j], ell), diag)
			krow[j], frow[j] = v, f
			K.Set(j, i, v)
			F.Set(j, i, f)
		}
	})
}

// MatrixGradsWorkers returns the Gram matrix and, for each packed
// hyperparameter, the elementwise derivative matrix dK/dθ, materialised
// from MatrixFactorInto: dK/dlogℓ_d = F∘U_d and dK/dlogσ² = K. No fit
// calls it; it is the reference the tests contract against, and what
// bench/probes.go times. The slices share no storage with the Gram
// matrix.
func (k *Kernel) MatrixGradsWorkers(X [][]float64, h *Hyper, workers int) (*linalg.Matrix, []*linalg.Matrix) {
	n := len(X)
	K, F := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
	k.MatrixFactorInto(X, h, K, F, workers)
	grads := make([]*linalg.Matrix, h.NumParams())
	for d := 0; d < k.Dim; d++ {
		G, l := linalg.NewMatrix(n, n), h.Length(d)
		parallel.For(n, workers, func(i int) {
			for j, f := range F.Row(i) {
				G.Set(i, j, f*k.ScaledSqTerm(X[i], X[j], d, l))
			}
		})
		grads[d] = G
	}
	grads[k.Dim] = K.Clone()
	return K, grads
}
