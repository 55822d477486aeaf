package linalg

import (
	"fmt"
	"math"
)

// This file implements the O(n²) incremental maintenance of a Cholesky
// factor: the rank-1 update and the bordered extension by one row.
// Together they let the GP surrogate absorb a new observation without
// the full O(n³) refactorization — the core of the suggestion-serving
// hot path, where one factor is kept live across thousands of requests
// and refreshed as crowd samples stream in.

// Update applies the rank-1 update A → A + v·vᵀ to the factor in place
// in O(n²) flops using a sweep of Givens rotations. v is not modified.
// The factor's jitter invariant L·Lᵀ = A + Jitter·I is preserved (the
// update shifts A, not the jitter). Row i takes rotations 0..i−1 in
// order, then fixes rotation i from its own diagonal, so L is read by
// rows.
func (c *Cholesky) Update(v []float64) {
	n := c.L.rows
	if len(v) != n {
		panic(fmt.Sprintf("linalg: Cholesky.Update length %d, want %d", len(v), n))
	}
	cth, sth := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		row := c.L.Row(i)
		w := v[i]
		for k, lik := range row[:i] {
			lik = (lik + sth[k]*w) / cth[k]
			row[k] = lik
			w = cth[k]*w - sth[k]*lik
		}
		lii := row[i]
		r := math.Hypot(lii, w)
		cth[i], sth[i] = r/lii, w/lii
		row[i] = r
	}
}

// AppendRow extends the factor of the n×n matrix A to the factor of the
// bordered (n+1)×(n+1) matrix [[A, k], [kᵀ, d]] in O(n²): one
// triangular solve for the new off-diagonal row plus a Schur-complement
// square root for the new pivot. The factor's jitter is added to the
// new diagonal entry so the L·Lᵀ = A + Jitter·I invariant extends to
// the bordered matrix. When the bordered matrix is not positive
// definite under the current jitter, AppendRow returns
// ErrNotPositiveDefinite and leaves the factor unchanged — callers
// (gp.Observe) fall back to a full refactorization.
func (c *Cholesky) AppendRow(k []float64, d float64) error {
	n := c.L.rows
	if len(k) != n {
		panic(fmt.Sprintf("linalg: Cholesky.AppendRow length %d, want %d", len(k), n))
	}
	l12 := make([]float64, n)
	forwardSubstInto(c.L, k, l12)
	pivot := d + c.Jitter - Dot(l12, l12)
	if pivot <= 0 || math.IsNaN(pivot) {
		return ErrNotPositiveDefinite
	}
	grown := NewMatrix(n+1, n+1)
	for i := 0; i < n; i++ {
		copy(grown.Row(i)[:n], c.L.Row(i))
	}
	last := grown.Row(n)
	copy(last[:n], l12)
	last[n] = math.Sqrt(pivot)
	c.L = grown
	return nil
}
