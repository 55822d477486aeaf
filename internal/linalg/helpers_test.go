package linalg

import (
	"fmt"
	"math"
)

// newMatrixFrom builds an r×c matrix over row-major data (not copied).
func newMatrixFrom(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("linalg: data length %d does not match %dx%d", len(data), r, c))
	}
	return &Matrix{rows: r, cols: c, data: data}
}

// transpose returns mᵀ as a new matrix.
func transpose(m *Matrix) *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j, v := range m.Row(i) {
			t.data[j*t.cols+i] = v
		}
	}
	return t
}

// matVec returns a·x.
func matVec(a *Matrix, x []float64) []float64 {
	if a.cols != len(x) {
		panic("linalg: matVec dimension mismatch")
	}
	y := make([]float64, a.rows)
	for i := range y {
		y[i] = Dot(a.Row(i), x)
	}
	return y
}

// maxAbsDiff returns max_i |a_i − b_i|.
func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		m = math.Max(m, math.Abs(a[i]-b[i]))
	}
	return m
}
