package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatMulKnown(t *testing.T) {
	a := newMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := newMatrixFrom(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if got := c.Data()[i]; !almostEqual(got, w, 1e-12) {
			t.Fatalf("MatMul[%d] = %v, want %v", i, got, w)
		}
	}
}

func TestTranspose(t *testing.T) {
	a := newMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	at := transpose(a)
	if at.Rows() != 3 || at.Cols() != 2 {
		t.Fatalf("transpose shape = %dx%d", at.Rows(), at.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMatVecAgainstMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 5, 7)
	x := randomVec(rng, 7)
	y := matVec(a, x)
	xm := newMatrixFrom(7, 1, CopyVec(x))
	ym := MatMul(a, xm)
	for i := range y {
		if !almostEqual(y[i], ym.At(i, 0), 1e-12) {
			t.Fatalf("MatVec disagrees with MatMul at %d", i)
		}
	}
}

func TestCholeskyKnown(t *testing.T) {
	// A = [[4,12,-16],[12,37,-43],[-16,-43,98]] has L = [[2,0,0],[6,1,0],[-8,5,3]].
	a := newMatrixFrom(3, 3, []float64{4, 12, -16, 12, 37, -43, -16, -43, 98})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 0, 0, 6, 1, 0, -8, 5, 3}
	for i, w := range want {
		if !almostEqual(ch.L.Data()[i], w, 1e-10) {
			t.Fatalf("L[%d] = %v, want %v", i, ch.L.Data()[i], w)
		}
	}
	// det(A) = (2·1·3)² = 36
	if !almostEqual(ch.LogDet(), math.Log(36), 1e-9) {
		t.Fatalf("LogDet = %v, want %v", ch.LogDet(), math.Log(36))
	}
}

func TestCholeskySolveAndLogDet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 12
	a := randomSPD(rng, n)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := randomVec(rng, n)
	b := matVec(a, x)
	got := ch.SolveVec(b)
	if d := maxAbsDiff(got, x); d > 1e-8 {
		t.Fatalf("SolveVec residual %v", d)
	}
	// Log-det against the product of squared diagonal entries of L.
	var ld float64
	for i := 0; i < n; i++ {
		ld += 2 * math.Log(ch.L.At(i, i))
	}
	if !almostEqual(ch.LogDet(), ld, 1e-12) {
		t.Fatalf("LogDet mismatch")
	}
}

func TestCholeskyJitterRescuesSingular(t *testing.T) {
	// Rank-1 matrix: jitter must rescue it.
	a := newMatrixFrom(2, 2, []float64{1, 1, 1, 1})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatalf("jittered Cholesky failed: %v", err)
	}
	if ch.Jitter <= 0 {
		t.Fatalf("expected positive jitter, got %v", ch.Jitter)
	}
}

func TestCholeskyRejectsNegativeDefinite(t *testing.T) {
	a := newMatrixFrom(2, 2, []float64{-5, 0, 0, -5})
	if _, err := NewCholesky(a); err == nil {
		t.Fatal("expected failure on negative definite matrix")
	}
}

func TestCholeskyJitterExhaustion(t *testing.T) {
	// Matrices that escalating jitter cannot rescue must surface the
	// sentinel error (the recoverable signal gp.Fit and lcm.Fit degrade
	// on), not a panic or a garbage factorization. NaN entries — the
	// shape crowd-fed data corruption takes — defeat every jitter level
	// because jitter only perturbs the diagonal.
	cases := map[string]*Matrix{
		"nan diagonal":     newMatrixFrom(2, 2, []float64{math.NaN(), 0, 0, 1}),
		"nan off-diagonal": newMatrixFrom(2, 2, []float64{1, math.NaN(), math.NaN(), 1}),
		"all nan":          newMatrixFrom(3, 3, []float64{math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()}),
	}
	for name, a := range cases {
		t.Run(name, func(t *testing.T) {
			ch, err := NewCholeskyJitter(a, 0)
			if err == nil {
				t.Fatalf("factorized a non-factorizable matrix: %+v", ch)
			}
			if !errors.Is(err, ErrNotPositiveDefinite) {
				t.Fatalf("error %v is not ErrNotPositiveDefinite", err)
			}
		})
	}
	// The plain (no-jitter) path reports the same sentinel.
	if _, err := NewCholesky(newMatrixFrom(2, 2, []float64{-5, 0, 0, -5})); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("negative definite error %v is not ErrNotPositiveDefinite", err)
	}
}

func TestCholeskyReconstructProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		// L·Lᵀ ≈ A + jitter·I
		llt := MatMul(ch.L, transpose(ch.L))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := a.At(i, j)
				if i == j {
					want += ch.Jitter
				}
				if math.Abs(llt.At(i, j)-want) > 1e-7*(1+math.Abs(want)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestForwardBackwardSubst(t *testing.T) {
	l := newMatrixFrom(3, 3, []float64{2, 0, 0, 1, 3, 0, -1, 2, 4})
	x := []float64{1, -2, 0.5}
	b := matVec(l, x)
	y := make([]float64, 3)
	forwardSubstInto(l, b, y)
	if d := maxAbsDiff(y, x); d > 1e-12 {
		t.Fatalf("forward substitution residual %v", d)
	}
	bt := matVec(transpose(l), x)
	xt := make([]float64, 3)
	backwardSubstTInto(l, bt, xt)
	if d := maxAbsDiff(xt, x); d > 1e-12 {
		t.Fatalf("backward substitution residual %v", d)
	}
}

func TestQRLeastSquaresExact(t *testing.T) {
	// Square, well-conditioned system: exact solve.
	a := newMatrixFrom(3, 3, []float64{2, 1, 0, 1, 3, 1, 0, 1, 4})
	x := []float64{1, -1, 2}
	b := matVec(a, x)
	got, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got, x); d > 1e-9 {
		t.Fatalf("LeastSquares residual %v", d)
	}
}

func TestQRLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2x + 1 from noisy-free samples: exact recovery.
	n := 10
	a := NewMatrix(n, 2)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		x := float64(i)
		a.Set(i, 0, x)
		a.Set(i, 1, 1)
		b[i] = 2*x + 1
	}
	got, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got[0], 2, 1e-9) || !almostEqual(got[1], 1, 1e-9) {
		t.Fatalf("fit = %v, want [2 1]", got)
	}
}

func TestQRSingularDetection(t *testing.T) {
	a := newMatrixFrom(3, 2, []float64{1, 2, 2, 4, 3, 6}) // collinear columns
	if _, err := LeastSquares(a, []float64{1, 2, 3}); err == nil {
		t.Fatal("expected ErrSingular for collinear design")
	}
}

func TestRidgeLeastSquaresHandlesCollinear(t *testing.T) {
	a := newMatrixFrom(3, 2, []float64{1, 2, 2, 4, 3, 6})
	x, err := RidgeLeastSquares(a, []float64{1, 2, 3}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// Ridge pulls toward the minimum-norm solution; residual should be tiny.
	r := matVec(a, x)
	for i, want := range []float64{1, 2, 3} {
		if math.Abs(r[i]-want) > 1e-3 {
			t.Fatalf("ridge residual too large: %v vs %v", r[i], want)
		}
	}
}

func TestRidgeShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomMatrix(rng, 20, 4)
	b := randomVec(rng, 20)
	x0, err := RidgeLeastSquares(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	x1, err := RidgeLeastSquares(a, b, 100)
	if err != nil {
		t.Fatal(err)
	}
	if n1, n0 := Dot(x1, x1), Dot(x0, x0); n1 >= n0 {
		t.Fatalf("ridge did not shrink: |x|² %v vs %v", n1, n0)
	}
}

func TestVectorHelpers(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if Dot(x, y) != 32 {
		t.Fatalf("Dot = %v", Dot(x, y))
	}
	z := CopyVec(y)
	z[0] = 99
	if y[0] != 4 || z[1] != 5 {
		t.Fatalf("CopyVec shares storage or lost values: %v %v", y, z)
	}
}

func TestIdentityAndAddDiag(t *testing.T) {
	m := NewMatrix(3, 3).AddDiag(1) // the identity
	m.AddDiag(2)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 3
			}
			if m.At(i, j) != want {
				t.Fatalf("m[%d,%d] = %v, want %v", i, j, m.At(i, j), want)
			}
		}
	}
}

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data() {
		m.Data()[i] = rng.NormFloat64()
	}
	return m
}

func randomVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// randomSPD builds B·Bᵀ + I which is symmetric positive definite.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	b := randomMatrix(rng, n, n)
	a := MatMul(b, transpose(b))
	a.AddDiag(1)
	return a
}

func TestCholeskySolveMatrixAndInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 8
	a := randomSPD(rng, n)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// Inverse: A⁻¹·b agrees with the triangular solves, and A·A⁻¹ ≈ I.
	inv := ch.Inverse()
	b := randomVec(rng, n)
	if d := maxAbsDiff(matVec(inv, b), ch.SolveVec(b)); d > 1e-9 {
		t.Fatalf("A⁻¹·b differs from SolveVec by %v", d)
	}
	prod := MatMul(a, inv)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(prod.At(i, j)-want) > 1e-7 {
				t.Fatalf("Inverse residual at (%d,%d): %v", i, j, prod.At(i, j))
			}
		}
	}
}

func TestMatrixHelpers(t *testing.T) {
	m := newMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
	m.Add(0, 1, 5)
	if m.At(0, 1) != 7 {
		t.Fatal("Add wrong")
	}
	m.Scale(2)
	if m.At(1, 1) != 8 {
		t.Fatal("Scale wrong")
	}
	if s := m.String(); len(s) == 0 {
		t.Fatal("String empty")
	}
	if m.Rows() != 2 || m.Cols() != 2 {
		t.Fatal("dims wrong")
	}
}

func TestPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s should panic", name)
			}
		}()
		f()
	}
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	expectPanic("MatMul", func() { MatMul(a, b) })
	expectPanic("MatVec", func() { matVec(a, []float64{1}) })
	expectPanic("Dot", func() { Dot([]float64{1}, []float64{1, 2}) })
	expectPanic("NewMatrixFrom", func() { newMatrixFrom(2, 2, []float64{1}) })
	expectPanic("ridge", func() { RidgeLeastSquares(a, []float64{1, 2}, -1) })
}

func TestCholeskyNonSquare(t *testing.T) {
	if _, err := NewCholesky(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected non-square error")
	}
}
