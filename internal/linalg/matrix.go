// Package linalg provides the dense linear algebra kernels that underpin
// the Gaussian-process surrogate models: matrices, Cholesky and QR
// factorizations, triangular solves and a handful of vector helpers.
//
// The package is deliberately self-contained (stdlib only) and tuned for
// the moderate problem sizes that appear in autotuning surrogates
// (covariance matrices of a few hundred to a few thousand rows).
package linalg

import (
	"fmt"
	"strings"

	"gptunecrowd/internal/parallel"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero-initialized r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", r, c))
	}
	return &Matrix{rows: r, cols: c, data: make([]float64, r*c)}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add accumulates v into element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Row returns a view of row i (shared storage).
func (m *Matrix) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Data returns the underlying row-major storage (shared).
func (m *Matrix) Data() []float64 { return m.data }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return &Matrix{rows: m.rows, cols: m.cols, data: d}
}

// Scale multiplies every element by s, in place, and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// AddDiag adds v to every diagonal element, in place, and returns m.
func (m *Matrix) AddDiag(v float64) *Matrix {
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	for i := 0; i < n; i++ {
		m.data[i*m.cols+i] += v
	}
	return m
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			fmt.Fprintf(&b, "% .6g ", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// matMulParallelFlops is the flop count above which MatMul goes
// multicore: below it the goroutine fan-out costs more than it saves on
// the small covariance blocks that dominate this codebase.
const matMulParallelFlops = 1 << 21

// MatMul returns a*b, switching to row-parallel execution for large
// products (see MatMulWorkers for the determinism argument).
func MatMul(a, b *Matrix) *Matrix {
	if a.rows*a.cols*b.cols >= matMulParallelFlops {
		return MatMulWorkers(a, b, 0)
	}
	return MatMulWorkers(a, b, 1)
}

// MatMulWorkers returns a*b computed with the given worker count (<= 0
// means the package default). Each output row is produced by exactly
// one worker with an unchanged inner accumulation order, so the result
// is bit-identical for every worker count.
func MatMulWorkers(a, b *Matrix, workers int) *Matrix {
	if a.cols != b.rows {
		panic(fmt.Sprintf("linalg: MatMul dimension mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	c := NewMatrix(a.rows, b.cols)
	// ikj loop order: stream through b's rows for cache friendliness.
	parallel.For(a.rows, workers, func(i int) {
		crow := c.Row(i)
		arow := a.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	})
	return c
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("linalg: Dot length mismatch")
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// CopyVec returns a copy of x.
func CopyVec(x []float64) []float64 {
	y := make([]float64, len(x))
	copy(y, x)
	return y
}
