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

// scaledSq returns u_d = (dist_d / ℓ_d)² accumulated over dimensions
// along with the per-dimension contributions in buf (reused).
func (k *Kernel) scaledSq(x, y []float64, h *Hyper, buf []float64) (float64, []float64) {
	var r2 float64
	for d := 0; d < k.Dim; d++ {
		var dist float64
		if k.Categorical != nil && k.Categorical[d] {
			if x[d] != y[d] {
				dist = 1
			}
		} else {
			dist = x[d] - y[d]
		}
		l := math.Exp(h.LogLength[d])
		u := (dist / l) * (dist / l)
		if buf != nil {
			buf[d] = u
		}
		r2 += u
	}
	return r2, buf
}

// Eval returns k(x, y).
func (k *Kernel) Eval(x, y []float64, h *Hyper) float64 {
	r2, _ := k.scaledSq(x, y, h, nil)
	sf2 := math.Exp(h.LogVar)
	switch k.Type {
	case RBF:
		return sf2 * math.Exp(-0.5*r2)
	case Matern32:
		r := math.Sqrt(r2)
		return sf2 * (1 + math.Sqrt(3)*r) * math.Exp(-math.Sqrt(3)*r)
	case Matern52:
		r := math.Sqrt(r2)
		return sf2 * (1 + math.Sqrt(5)*r + 5*r2/3) * math.Exp(-math.Sqrt(5)*r)
	}
	panic("kernel: unknown type")
}

// Diag returns k(x, x), which for every supported stationary family is
// just the signal variance (r = 0) — a shortcut that skips the
// per-dimension distance loop on the Gram diagonal.
func (k *Kernel) Diag(h *Hyper) float64 { return math.Exp(h.LogVar) }

// EvalGrad returns k(x, y) and its gradient with respect to the packed
// hyperparameters [LogLength..., LogVar].
func (k *Kernel) EvalGrad(x, y []float64, h *Hyper, grad []float64) float64 {
	return k.evalGradBuf(x, y, h, grad, make([]float64, k.Dim))
}

// evalGradBuf is EvalGrad with a caller-provided scratch buffer of
// length Dim, so hot loops avoid one allocation per pair.
func (k *Kernel) evalGradBuf(x, y []float64, h *Hyper, grad, buf []float64) float64 {
	r2, _ := k.scaledSq(x, y, h, buf)
	sf2 := math.Exp(h.LogVar)
	var val, lenFactor float64
	switch k.Type {
	case RBF:
		val = sf2 * math.Exp(-0.5*r2)
		// dk/dlogℓ_d = val · u_d
		lenFactor = val
	case Matern32:
		r := math.Sqrt(r2)
		e := math.Exp(-math.Sqrt(3) * r)
		val = sf2 * (1 + math.Sqrt(3)*r) * e
		// dk/dlogℓ_d = 3·σ²·u_d·e^{−√3 r}
		lenFactor = 3 * sf2 * e
		// (expressed per-u_d below; the r-dependence cancels)
		for d := 0; d < k.Dim; d++ {
			grad[d] = lenFactor * buf[d]
		}
		grad[k.Dim] = val
		return val
	case Matern52:
		r := math.Sqrt(r2)
		e := math.Exp(-math.Sqrt(5) * r)
		val = sf2 * (1 + math.Sqrt(5)*r + 5*r2/3) * e
		// dk/dlogℓ_d = (5/3)·σ²·u_d·(1+√5 r)·e^{−√5 r}
		f := (5.0 / 3.0) * sf2 * (1 + math.Sqrt(5)*r) * e
		for d := 0; d < k.Dim; d++ {
			grad[d] = f * buf[d]
		}
		grad[k.Dim] = val
		return val
	default:
		panic("kernel: unknown type")
	}
	for d := 0; d < k.Dim; d++ {
		grad[d] = lenFactor * buf[d]
	}
	grad[k.Dim] = val // dk/dlogσ² = k
	return val
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
	diag := k.Diag(h)
	parallel.For(n, workers, func(i int) {
		row := m.Row(i)
		row[i] = diag
		xi := X[i]
		for j := i + 1; j < n; j++ {
			v := k.Eval(xi, X[j], h)
			row[j] = v
			m.Set(j, i, v)
		}
	})
}

// CrossMatrixWorkers returns the len(A)×len(B) covariance matrix
// between two point sets with the given worker count (<= 0 means the
// package default).
func (k *Kernel) CrossMatrixWorkers(A, B [][]float64, h *Hyper, workers int) *linalg.Matrix {
	m := linalg.NewMatrix(len(A), len(B))
	parallel.For(len(A), workers, func(i int) {
		row := m.Row(i)
		for j := range B {
			row[j] = k.Eval(A[i], B[j], h)
		}
	})
	return m
}

// MatrixGradsWorkers returns the Gram matrix and, for each packed
// hyperparameter, the elementwise derivative matrix dK/dθ, with the
// given worker count. The slices share no storage with the Gram matrix.
func (k *Kernel) MatrixGradsWorkers(X [][]float64, h *Hyper, workers int) (*linalg.Matrix, []*linalg.Matrix) {
	n := len(X)
	np := h.NumParams()
	K := linalg.NewMatrix(n, n)
	grads := make([]*linalg.Matrix, np)
	for p := range grads {
		grads[p] = linalg.NewMatrix(n, n)
	}
	k.MatrixGradsInto(X, h, K, grads, workers)
	return K, grads
}

// gradScratch is the per-worker state of MatrixGradsInto.
type gradScratch struct {
	g, buf []float64
}

// MatrixGradsInto fills preallocated K and grads matrices. Each worker
// carries its own scratch, so the hot pair loop performs no allocation;
// each symmetric pair is evaluated once and mirrored. On the diagonal
// (r = 0) the value is the signal variance, the length-scale gradients
// vanish and dK/dlogσ² equals the value itself.
func (k *Kernel) MatrixGradsInto(X [][]float64, h *Hyper, K *linalg.Matrix, grads []*linalg.Matrix, workers int) {
	n := len(X)
	np := h.NumParams()
	diag := k.Diag(h)
	parallel.ForEachWorker(n, workers, func() *gradScratch {
		return &gradScratch{g: make([]float64, np), buf: make([]float64, k.Dim)}
	}, func(sc *gradScratch, i int) {
		K.Set(i, i, diag)
		for p := 0; p < np-1; p++ {
			grads[p].Set(i, i, 0)
		}
		grads[np-1].Set(i, i, diag)
		xi := X[i]
		for j := i + 1; j < n; j++ {
			v := k.evalGradBuf(xi, X[j], h, sc.g, sc.buf)
			K.Set(i, j, v)
			K.Set(j, i, v)
			for p := 0; p < np; p++ {
				grads[p].Set(i, j, sc.g[p])
				grads[p].Set(j, i, sc.g[p])
			}
		}
	})
}
