package kernel

import (
	"fmt"
	"math"
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

// refEvalGrad is the per-pair formula, with exp taken of every log
// hyperparameter at every pair, that each kernel form must reproduce
// bit for bit. It returns k(x, y) and its packed gradient.
func refEvalGrad(k *Kernel, x, y []float64, h *Hyper) (float64, []float64) {
	u := make([]float64, k.Dim)
	var r2 float64
	for d := range u {
		dist := x[d] - y[d]
		if k.Categorical != nil && k.Categorical[d] {
			dist = 0
			if x[d] != y[d] {
				dist = 1
			}
		}
		l := math.Exp(h.LogLength[d])
		u[d] = (dist / l) * (dist / l)
		r2 += u[d]
	}
	sf2 := math.Exp(h.LogVar)
	var val, f float64
	switch k.Type {
	case RBF:
		val = sf2 * math.Exp(-0.5*r2)
		f = val
	case Matern32:
		r := math.Sqrt(r2)
		val = sf2 * (1 + math.Sqrt(3)*r) * math.Exp(-math.Sqrt(3)*r)
		f = 3 * sf2 * math.Exp(-math.Sqrt(3)*r)
	case Matern52:
		r := math.Sqrt(r2)
		val = sf2 * (1 + math.Sqrt(5)*r + 5*r2/3) * math.Exp(-math.Sqrt(5)*r)
		f = (5.0 / 3.0) * sf2 * (1 + math.Sqrt(5)*r) * math.Exp(-math.Sqrt(5)*r)
	}
	grad := make([]float64, k.Dim+1)
	for d := range u {
		grad[d] = f * u[d]
	}
	grad[k.Dim] = val
	return val, grad
}

// Every form (RowInto, the Gram and cross matrices, the gradient
// matrices) computes the length scales once per call, and each must
// equal refEvalGrad's per-pair exp bit for bit, for every family, with
// and without a categorical mask; the Gram diagonal is the closed form
// Diag.
func TestMatrixMatchesPairwiseEval(t *testing.T) {
	same := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s = %v, per-pair %v", what, got, want)
		}
	}
	for _, typ := range []Type{RBF, Matern32, Matern52} {
		for _, mask := range [][]bool{nil, {false, true, false}} {
			k := &Kernel{Type: typ, Dim: 3, Categorical: mask}
			h := randHyper(rand.New(rand.NewSource(int64(typ))), 3)
			X := randPoints(11, 3, 3)
			for i := range X {
				X[i][1] = float64(i%3) / 2 // repeated codes, so both Hamming cases occur
			}
			A := randPoints(4, 3, 5)
			K := k.Matrix(X, h)
			G, grads := k.MatrixGradsWorkers(X, h, 0)
			C := k.CrossMatrixWorkers(A, X, h, 0)
			row, ell := make([]float64, len(X)), make([]float64, k.Dim)
			for a, x := range A {
				k.RowInto(x, X, h, row, ell)
				for j, y := range X {
					want, _ := refEvalGrad(k, x, y, h)
					same(fmt.Sprintf("%v/%v: RowInto(a%d)[%d]", typ, mask, a, j), row[j], want)
					same(fmt.Sprintf("%v/%v: Cross(%d,%d)", typ, mask, a, j), C.At(a, j), want)
				}
			}
			for i, x := range X {
				for j, y := range X {
					want, wantGrad := refEvalGrad(k, x, y, h)
					same(fmt.Sprintf("%v/%v: Matrix(%d,%d)", typ, mask, i, j), K.At(i, j), want)
					same(fmt.Sprintf("%v/%v: MatrixGrads K(%d,%d)", typ, mask, i, j), G.At(i, j), want)
					for p, g := range wantGrad {
						same(fmt.Sprintf("%v/%v: dK%d(%d,%d)", typ, mask, p, i, j), grads[p].At(i, j), g)
					}
				}
			}
			same(fmt.Sprintf("%v/%v: Diag", typ, mask), k.Diag(h), K.At(0, 0))
		}
	}
}

// The diagonal of MatrixGradsWorkers must match evalGradAt at identical points:
// zero length-scale gradients, dK/dlogσ² equal to the variance.
func TestMatrixGradsDiagonal(t *testing.T) {
	k := New(Matern52, 2)
	h := NewHyper(2)
	h.LogVar = 0.8
	X := randPoints(6, 2, 4)
	K, G := k.MatrixGradsWorkers(X, h, 0)
	g := make([]float64, h.NumParams())
	for i := range X {
		v := evalGradAt(k, X[i], X[i], h, g)
		if K.At(i, i) != v {
			t.Fatalf("diag value %v vs evalGradAt %v", K.At(i, i), v)
		}
		for p := range g {
			if G[p].At(i, i) != g[p] {
				t.Fatalf("diag grad %d: %v vs %v", p, G[p].At(i, i), g[p])
			}
		}
	}
}
