package kernel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gptunecrowd/internal/linalg"
)

func randHyper(rng *rand.Rand, dim int) *Hyper {
	h := NewHyper(dim)
	for d := range h.LogLength {
		h.LogLength[d] = rng.NormFloat64() * 0.5
	}
	h.LogVar = rng.NormFloat64() * 0.5
	return h
}

func TestEvalDiagonalIsVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, typ := range []Type{RBF, Matern32, Matern52} {
		k := New(typ, 3)
		h := randHyper(rng, 3)
		x := []float64{0.1, 0.5, 0.9}
		got := k.Eval(x, x, h)
		want := math.Exp(h.LogVar)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("%v: k(x,x) = %v, want %v", typ, got, want)
		}
	}
}

func TestEvalSymmetryAndDecay(t *testing.T) {
	k := New(RBF, 2)
	h := NewHyper(2)
	x := []float64{0.2, 0.3}
	y := []float64{0.8, 0.9}
	if k.Eval(x, y, h) != k.Eval(y, x, h) {
		t.Fatal("kernel not symmetric")
	}
	near := k.Eval(x, []float64{0.25, 0.35}, h)
	far := k.Eval(x, []float64{0.9, 0.95}, h)
	if near <= far {
		t.Fatalf("kernel does not decay: near=%v far=%v", near, far)
	}
}

func TestCategoricalHamming(t *testing.T) {
	k := &Kernel{Type: RBF, Dim: 2, Categorical: []bool{false, true}}
	h := NewHyper(2)
	// Categorical dim: any two distinct codes are equally distant.
	a := k.Eval([]float64{0.5, 0.1}, []float64{0.5, 0.9}, h)
	b := k.Eval([]float64{0.5, 0.1}, []float64{0.5, 0.3}, h)
	if math.Abs(a-b) > 1e-15 {
		t.Fatalf("categorical distance not Hamming: %v vs %v", a, b)
	}
	same := k.Eval([]float64{0.5, 0.1}, []float64{0.5, 0.1}, h)
	if same <= a {
		t.Fatal("identical categories should covary more")
	}
}

func TestEvalGradMatchesNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, typ := range []Type{RBF, Matern32, Matern52} {
		k := New(typ, 3)
		h := randHyper(rng, 3)
		x := []float64{0.1, 0.4, 0.7}
		y := []float64{0.3, 0.2, 0.9}
		np := h.NumParams()
		grad := make([]float64, np)
		k.EvalGrad(x, y, h, grad)
		packed := pack(h)
		const eps = 1e-6
		for p := 0; p < np; p++ {
			hp := NewHyper(3)
			pp := append([]float64(nil), packed...)
			pp[p] += eps
			hp.Unpack(pp)
			fp := k.Eval(x, y, hp)
			pp[p] -= 2 * eps
			hp.Unpack(pp)
			fm := k.Eval(x, y, hp)
			num := (fp - fm) / (2 * eps)
			if math.Abs(num-grad[p]) > 1e-5*(1+math.Abs(num)) {
				t.Fatalf("%v grad[%d]: analytic %v vs numeric %v", typ, p, grad[p], num)
			}
		}
	}
}

func TestEvalGradAtZeroDistance(t *testing.T) {
	// Matérn kernels have an r=0 corner; the gradient must be finite.
	for _, typ := range []Type{RBF, Matern32, Matern52} {
		k := New(typ, 2)
		h := NewHyper(2)
		grad := make([]float64, 3)
		x := []float64{0.5, 0.5}
		v := k.EvalGrad(x, x, h, grad)
		if math.IsNaN(v) {
			t.Fatalf("%v: NaN value at zero distance", typ)
		}
		for p, g := range grad {
			if math.IsNaN(g) || math.IsInf(g, 0) {
				t.Fatalf("%v: bad grad[%d] = %v at zero distance", typ, p, g)
			}
		}
		if grad[0] != 0 || grad[1] != 0 {
			t.Fatalf("%v: length-scale grad should vanish at zero distance", typ)
		}
	}
}

func TestMatrixPSDProperty(t *testing.T) {
	// Gram matrices (plus tiny noise) must admit a Cholesky factorization.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		typ := []Type{RBF, Matern32, Matern52}[rng.Intn(3)]
		dim := 1 + rng.Intn(4)
		n := 2 + rng.Intn(20)
		k := New(typ, dim)
		h := randHyper(rng, dim)
		X := make([][]float64, n)
		for i := range X {
			x := make([]float64, dim)
			for d := range x {
				x[d] = rng.Float64()
			}
			X[i] = x
		}
		K := k.Matrix(X, h).AddDiag(1e-8 * math.Exp(h.LogVar))
		_, err := linalg.NewCholesky(K)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixGradsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	k := New(Matern52, 2)
	h := randHyper(rng, 2)
	X := [][]float64{{0.1, 0.2}, {0.7, 0.3}, {0.5, 0.9}}
	K, grads := k.MatrixGradsWorkers(X, h, 0)
	K2 := k.Matrix(X, h)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if K.At(i, j) != K2.At(i, j) {
				t.Fatal("MatrixGradsWorkers K differs from Matrix")
			}
		}
	}
	g := make([]float64, h.NumParams())
	v := k.EvalGrad(X[0], X[1], h, g)
	if math.Abs(v-K.At(0, 1)) > 1e-15 {
		t.Fatal("EvalGrad value mismatch")
	}
	for p := range g {
		if math.Abs(grads[p].At(0, 1)-g[p]) > 1e-15 {
			t.Fatal("gradient matrix mismatch")
		}
	}
}

func TestCrossMatrixShape(t *testing.T) {
	k := New(RBF, 2)
	h := NewHyper(2)
	A := [][]float64{{0, 0}, {1, 1}, {0.5, 0.5}}
	B := [][]float64{{0, 0}, {1, 1}}
	c := k.CrossMatrixWorkers(A, B, h, 0)
	if c.Rows() != 3 || c.Cols() != 2 {
		t.Fatalf("shape %dx%d", c.Rows(), c.Cols())
	}
	if math.Abs(c.At(0, 0)-math.Exp(h.LogVar)) > 1e-15 {
		t.Fatal("self covariance wrong")
	}
}

// pack lays h out in the optimizers' order: [LogLength..., LogVar].
func pack(h *Hyper) []float64 {
	return append(append([]float64(nil), h.LogLength...), h.LogVar)
}

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := randHyper(rng, 4)
	packed := pack(h)
	h2 := NewHyper(4)
	h2.Unpack(packed)
	for d := range h.LogLength {
		if h.LogLength[d] != h2.LogLength[d] {
			t.Fatal("LogLength round trip failed")
		}
	}
	if h.LogVar != h2.LogVar {
		t.Fatal("LogVar round trip failed")
	}
}

func TestParseType(t *testing.T) {
	for _, s := range []string{"rbf", "matern32", "matern52"} {
		typ, err := ParseType(s)
		if err != nil {
			t.Fatal(err)
		}
		if typ.String() != s {
			t.Fatalf("round trip %s -> %s", s, typ)
		}
	}
	if _, err := ParseType("cubic"); err == nil {
		t.Fatal("expected error")
	}
}
