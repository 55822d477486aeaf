package linalg

import (
	"math/rand"
	"testing"
)

func randMatrix(r, c int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

func randSPD(n int, seed int64) *Matrix {
	a := randMatrix(n, n, seed)
	s := MatMul(a, transpose(a))
	s.AddDiag(float64(n))
	return s
}

func TestMatMulWorkersBitIdentical(t *testing.T) {
	a := randMatrix(33, 21, 1)
	b := randMatrix(21, 17, 2)
	ref := MatMulWorkers(a, b, 1)
	for _, w := range []int{2, 8} {
		got := MatMulWorkers(a, b, w)
		for i := range ref.data {
			if ref.data[i] != got.data[i] {
				t.Fatalf("workers=%d: element %d differs", w, i)
			}
		}
	}
	// The auto-switching MatMul must agree with the explicit variants.
	got := MatMul(a, b)
	for i := range ref.data {
		if ref.data[i] != got.data[i] {
			t.Fatalf("MatMul disagrees with MatMulWorkers at %d", i)
		}
	}
}

func TestCholeskySolveAndInverseWorkersBitIdentical(t *testing.T) {
	a := randSPD(24, 3)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	refInv := ch.InverseWorkers(1)
	// Column j of the inverse is the solve against the unit vector e_j.
	e := make([]float64, 24)
	for j := range e {
		e[j] = 1
		for i, v := range ch.SolveVec(e) {
			if refInv.At(i, j) != v {
				t.Fatalf("Inverse column %d differs from SolveVec at %d", j, i)
			}
		}
		e[j] = 0
	}
	for _, w := range []int{2, 8} {
		inv := ch.InverseWorkers(w)
		for i := range refInv.data {
			if refInv.data[i] != inv.data[i] {
				t.Fatalf("Inverse workers=%d: element %d differs", w, i)
			}
		}
	}
}

func TestSolveVecIntoMatchesSolveVec(t *testing.T) {
	a := randSPD(13, 5)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 13)
	for i := range b {
		b[i] = float64(i) - 6
	}
	want := ch.SolveVec(b)
	dst := make([]float64, 13)
	tmp := make([]float64, 13)
	ch.SolveVecInto(b, dst, tmp)
	for i := range want {
		if want[i] != dst[i] {
			t.Fatalf("element %d: %v vs %v", i, want[i], dst[i])
		}
	}
}
