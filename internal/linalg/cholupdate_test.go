package linalg

import (
	"math/rand"
	"testing"
)

// randSPDDiag returns a well-conditioned random SPD matrix A = BᵀB + d·I.
func randSPDDiag(n int, diag float64, rng *rand.Rand) *Matrix {
	b := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	a := MatMul(transpose(b), b)
	a.AddDiag(diag)
	return a
}

// reconstruct returns L·Lᵀ for the factor.
func reconstruct(c *Cholesky) *Matrix {
	return MatMul(c.L, transpose(c.L))
}

// maxAbsDiffM returns max_ij |a_ij − b_ij|.
func maxAbsDiffM(a, b *Matrix) float64 {
	var m float64
	for i := 0; i < a.Rows(); i++ {
		d := maxAbsDiff(a.Row(i), b.Row(i))
		if d > m {
			m = d
		}
	}
	return m
}

// TestCholeskyUpdateAppendProperty checks, across 100 randomized SPD
// matrices, that the rank-1 Update and the bordered AppendRow produce
// factors matching NewCholesky of the explicitly rebuilt matrix to 1e-10.
func TestCholeskyUpdateAppendProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const tol = 1e-10
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(14)
		a := randSPDDiag(n+1, 1+rng.Float64(), rng)

		// Leading n×n principal submatrix: the starting factor.
		lead := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			copy(lead.Row(i), a.Row(i)[:n])
		}
		ch, err := NewCholesky(lead)
		if err != nil {
			t.Fatalf("trial %d: factorize: %v", trial, err)
		}

		// Update: A + v·vᵀ.
		v := make([]float64, n)
		for d := range v {
			v[d] = rng.NormFloat64()
		}
		up := lead.Clone()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				up.Add(i, j, v[i]*v[j])
			}
		}
		chUp := &Cholesky{L: ch.L.Clone(), Jitter: ch.Jitter}
		chUp.Update(v)
		want, err := NewCholesky(up)
		if err != nil {
			t.Fatalf("trial %d: refactorize updated: %v", trial, err)
		}
		if d := maxAbsDiffM(chUp.L, want.L); d > tol {
			t.Fatalf("trial %d: Update factor drift %g > %g", trial, d, tol)
		}

		// AppendRow: border with the last row/column of the big matrix.
		k := make([]float64, n)
		for i := 0; i < n; i++ {
			k[i] = a.At(i, n)
		}
		chApp := &Cholesky{L: ch.L.Clone(), Jitter: ch.Jitter}
		if err := chApp.AppendRow(k, a.At(n, n)); err != nil {
			t.Fatalf("trial %d: AppendRow: %v", trial, err)
		}
		wantFull, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("trial %d: refactorize bordered: %v", trial, err)
		}
		if d := maxAbsDiffM(chApp.L, wantFull.L); d > tol {
			t.Fatalf("trial %d: AppendRow factor drift %g > %g", trial, d, tol)
		}
	}
}

// TestCholeskyAppendRowJitterPath exercises AppendRow on factors whose
// base factorization needed adaptive jitter: the bordered factor must
// reconstruct A + Jitter·I to 1e-10, i.e. the jitter invariant extends
// to the appended row.
func TestCholeskyAppendRowJitterPath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const tol = 1e-10
	jittered := 0
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(8)
		// Rank-deficient base: duplicate columns force the jitter path.
		b := NewMatrix(n+1, 2)
		for i := 0; i <= n; i++ {
			b.Set(i, 0, rng.NormFloat64())
			b.Set(i, 1, rng.NormFloat64())
		}
		a := MatMul(b, transpose(b)) // rank ≤ 2, singular for n ≥ 2

		lead := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			copy(lead.Row(i), a.Row(i)[:n])
		}
		ch, err := NewCholesky(lead)
		if err != nil {
			t.Fatalf("trial %d: jittered factorize: %v", trial, err)
		}
		if ch.Jitter > 0 {
			jittered++
		}
		k := make([]float64, n)
		for i := 0; i < n; i++ {
			k[i] = a.At(i, n)
		}
		if err := ch.AppendRow(k, a.At(n, n)); err != nil {
			// The bordered matrix can genuinely need more jitter than
			// the base factor carries; the error contract (factor
			// unchanged, caller refits) is the point of the path.
			if ch.L.Rows() != n {
				t.Fatalf("trial %d: failed AppendRow mutated the factor", trial)
			}
			continue
		}
		// Reconstruct and compare against A + Jitter·I.
		got := reconstruct(ch)
		want := a.Clone().AddDiag(ch.Jitter)
		if d := maxAbsDiffM(got, want); d > tol {
			t.Fatalf("trial %d: jittered AppendRow reconstruction drift %g > %g", trial, d, tol)
		}
	}
	if jittered == 0 {
		t.Fatal("jitter path never exercised; fixture too well-conditioned")
	}
}

func BenchmarkCholeskyAppendRow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 256
	a := randSPDDiag(n+1, 1, rng)
	lead := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		copy(lead.Row(i), a.Row(i)[:n])
	}
	base, err := NewCholesky(lead)
	if err != nil {
		b.Fatal(err)
	}
	k := make([]float64, n)
	for i := 0; i < n; i++ {
		k[i] = a.At(i, n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch := &Cholesky{L: base.L, Jitter: base.Jitter}
		if err := ch.AppendRow(k, a.At(n, n)); err != nil {
			b.Fatal(err)
		}
	}
}
