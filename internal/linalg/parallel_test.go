package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gptunecrowd/internal/parallel"
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

// nearSingular returns B·Bᵀ for an n×(n/2) B: rank-deficient, so
// NewCholesky only succeeds on its jitter path.
func nearSingular(n int, seed int64) *Matrix {
	b := randMatrix(n, n/2, seed)
	return MatMul(b, transpose(b))
}

// Column j of A⁻¹ is the solve against the unit vector e_j; Inverse
// must agree with those solves to 1e-10 relative to its largest entry
// and be exactly symmetric, on well-conditioned matrices and on the
// jittered factor of a singular one.
func TestCholeskyInverseMatchesSolveVec(t *testing.T) {
	type tc struct {
		name   string
		a      *Matrix
		jitter bool
	}
	cases := []tc{{"singular128", nearSingular(128, 4), true}}
	for _, n := range []int{1, 2, 17, 128} {
		cases = append(cases, tc{name: fmt.Sprintf("spd%d", n), a: randSPD(n, int64(n))})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ch, err := NewCholesky(c.a)
			if err != nil {
				t.Fatal(err)
			}
			if (ch.Jitter > 0) != c.jitter {
				t.Fatalf("jitter %v, want jitter path %v", ch.Jitter, c.jitter)
			}
			n := c.a.Rows()
			inv := ch.Inverse()
			var scale, diff float64
			e := make([]float64, n)
			for j := range e {
				e[j] = 1
				for i, v := range ch.SolveVec(e) {
					scale = math.Max(scale, math.Abs(v))
					diff = math.Max(diff, math.Abs(inv.At(i, j)-v))
				}
				e[j] = 0
			}
			if diff > 1e-10*scale {
				t.Fatalf("Inverse differs from the unit-vector solves by %v (scale %v)", diff, scale)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < i; j++ {
					if inv.At(i, j) != inv.At(j, i) {
						t.Fatalf("Inverse not symmetric at (%d,%d)", i, j)
					}
				}
			}
		})
	}
}

// Inverse is serial; the likelihood gradients call it from concurrent
// restarts, so concurrent calls at any worker count must agree bit for
// bit with a lone call.
func TestCholeskyInverseBitIdenticalAcrossWorkers(t *testing.T) {
	ch, err := NewCholesky(randSPD(40, 3))
	if err != nil {
		t.Fatal(err)
	}
	ref := ch.Inverse()
	for _, w := range []int{1, 4, 8} {
		invs := make([]*Matrix, 8)
		parallel.For(len(invs), w, func(i int) { invs[i] = ch.Inverse() })
		for _, inv := range invs {
			if !slices.Equal(inv.data, ref.data) {
				t.Fatalf("workers=%d: Inverse differs from the serial call", w)
			}
		}
	}
}

// ForwardSolveInto is the variance half of a solve: ‖L⁻¹b‖² = bᵀA⁻¹b,
// in place or not.
func TestForwardSolveIntoMatchesSolveVec(t *testing.T) {
	a := randSPD(13, 5)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 13)
	for i := range b {
		b[i] = float64(i) - 6
	}
	want := Dot(b, ch.SolveVec(b))
	y := make([]float64, 13)
	ch.ForwardSolveInto(b, y)
	if got := Dot(y, y); math.Abs(got-want) > 1e-12*want {
		t.Fatalf("‖L⁻¹b‖² = %v, bᵀA⁻¹b = %v", got, want)
	}
	ch.ForwardSolveInto(b, b)
	if !slices.Equal(b, y) {
		t.Fatal("in-place ForwardSolveInto differs")
	}
}
