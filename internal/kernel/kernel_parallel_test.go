package kernel

import (
	"math/rand"
	"testing"

	"gptunecrowd/internal/linalg"
)

func randPoints(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	for i := range X {
		x := make([]float64, dim)
		for d := range x {
			x[d] = rng.Float64()
		}
		X[i] = x
	}
	return X
}

func sameMatrix(t *testing.T, name string, a, b *linalg.Matrix) {
	t.Helper()
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		t.Fatalf("%s: shape mismatch", name)
	}
	da, db := a.Data(), b.Data()
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, da[i], db[i])
		}
	}
}

// The parallel Gram-matrix paths must be bit-identical for every worker
// count: each element is written exactly once from pair-local inputs.
func TestMatrixWorkersBitIdentical(t *testing.T) {
	for _, typ := range []Type{RBF, Matern32, Matern52} {
		k := New(typ, 3)
		h := NewHyper(3)
		h.LogLength[1] = -0.7
		h.LogVar = 0.3
		X := randPoints(37, 3, int64(typ))
		ref := k.MatrixWorkers(X, h, 1)
		for _, w := range []int{2, 8} {
			sameMatrix(t, typ.String(), ref, k.MatrixWorkers(X, h, w))
		}
	}
}

func TestCrossMatrixWorkersBitIdentical(t *testing.T) {
	k := New(Matern52, 2)
	h := NewHyper(2)
	A := randPoints(23, 2, 1)
	B := randPoints(11, 2, 2)
	ref := k.CrossMatrixWorkers(A, B, h, 1)
	sameMatrix(t, "cross", ref, k.CrossMatrixWorkers(A, B, h, 8))
}

func TestMatrixGradsWorkersBitIdentical(t *testing.T) {
	k := New(Matern52, 3)
	h := NewHyper(3)
	h.LogVar = -0.2
	X := randPoints(29, 3, 7)
	refK, refG := k.MatrixGradsWorkers(X, h, 1)
	for _, w := range []int{3, 8} {
		K, G := k.MatrixGradsWorkers(X, h, w)
		sameMatrix(t, "K", refK, K)
		for p := range G {
			sameMatrix(t, "grad", refG[p], G[p])
		}
	}
}

// The symmetry + diagonal shortcut must agree with direct evaluation.
func TestMatrixMatchesPairwiseEval(t *testing.T) {
	for _, typ := range []Type{RBF, Matern32, Matern52} {
		k := New(typ, 2)
		k.Categorical = []bool{false, true}
		h := NewHyper(2)
		h.LogLength[0] = 0.4
		h.LogVar = -0.5
		X := randPoints(9, 2, 3)
		m := k.Matrix(X, h)
		for i := range X {
			for j := range X {
				if got, want := m.At(i, j), k.Eval(X[i], X[j], h); got != want {
					t.Fatalf("%s: (%d,%d) = %v, pairwise %v", typ, i, j, got, want)
				}
			}
		}
		if got, want := k.Diag(h), k.Eval(X[0], X[0], h); got != want {
			t.Fatalf("%s: Diag %v vs Eval(x,x) %v", typ, got, want)
		}
	}
}

// The diagonal of MatrixGradsWorkers must match EvalGrad at identical points:
// zero length-scale gradients, dK/dlogσ² equal to the variance.
func TestMatrixGradsDiagonal(t *testing.T) {
	k := New(Matern52, 2)
	h := NewHyper(2)
	h.LogVar = 0.8
	X := randPoints(6, 2, 4)
	K, G := k.MatrixGradsWorkers(X, h, 0)
	g := make([]float64, h.NumParams())
	for i := range X {
		v := k.EvalGrad(X[i], X[i], h, g)
		if K.At(i, i) != v {
			t.Fatalf("diag value %v vs EvalGrad %v", K.At(i, i), v)
		}
		for p := range g {
			if G[p].At(i, i) != g[p] {
				t.Fatalf("diag grad %d: %v vs %v", p, G[p].At(i, i), g[p])
			}
		}
	}
}
