package sample

import (
	"fmt"
	"math/rand"
)

// LatinHypercube returns an n×dim design in [0,1)^dim where each
// dimension is stratified into n equal bins with one point per bin
// (maximin is not attempted; the stratification alone is what the tuner
// needs for space-filling initial samples).
func LatinHypercube(n, dim int, rng *rand.Rand) [][]float64 {
	if n <= 0 || dim <= 0 {
		panic(fmt.Sprintf("sample: invalid LHS size %dx%d", n, dim))
	}
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
	}
	LatinHypercubeInto(pts, rng)
	return pts
}

// LatinHypercubeInto fills a caller-owned n×dim design in place,
// consuming the RNG stream exactly as LatinHypercube does — callers
// that recycle the point buffers (the suggest hot path) get identical
// designs to the allocating form. Every row must have the same length.
func LatinHypercubeInto(dst [][]float64, rng *rand.Rand) {
	n := len(dst)
	if n == 0 || len(dst[0]) == 0 {
		panic("sample: empty LHS design")
	}
	dim := len(dst[0])
	perm := make([]int, n)
	for d := 0; d < dim; d++ {
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(n, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		for i := 0; i < n; i++ {
			dst[i][d] = (float64(perm[i]) + rng.Float64()) / float64(n)
		}
	}
}

// Saltelli holds the cross-sampled design used by the Sobol sensitivity
// estimators: base matrices A and B (n×dim each) plus the AB_i matrices
// where column i of A is replaced by column i of B.
type Saltelli struct {
	A, B [][]float64
	AB   [][][]float64 // AB[i] is n×dim
	N    int
	Dim  int
}

// NewSaltelli builds a Saltelli design with n base samples over dim
// dimensions drawn from a Sobol' sequence of dimension 2·dim, as in
// Saltelli (2010) and SALib. Total model evaluations required:
// n·(dim+2).
func NewSaltelli(n, dim, skip int) (*Saltelli, error) {
	seq, err := NewSobolSeq(2 * dim)
	if err != nil {
		return nil, err
	}
	seq.Skip(skip)
	s := &Saltelli{N: n, Dim: dim}
	s.A = make([][]float64, n)
	s.B = make([][]float64, n)
	buf := make([]float64, 2*dim)
	for i := 0; i < n; i++ {
		seq.Next(buf)
		a := make([]float64, dim)
		b := make([]float64, dim)
		copy(a, buf[:dim])
		copy(b, buf[dim:])
		s.A[i] = a
		s.B[i] = b
	}
	s.AB = make([][][]float64, dim)
	for d := 0; d < dim; d++ {
		m := make([][]float64, n)
		for i := 0; i < n; i++ {
			row := append([]float64(nil), s.A[i]...)
			row[d] = s.B[i][d]
			m[i] = row
		}
		s.AB[d] = m
	}
	return s, nil
}
