package sample

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSobolFirstPoints1D(t *testing.T) {
	seq, err := NewSobolSeq(1)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.5, 0.75, 0.25, 0.375}
	for i, w := range want {
		got := seq.Next(nil)[0]
		if math.Abs(got-w) > 1e-12 {
			t.Fatalf("point %d = %v, want %v", i, got, w)
		}
	}
}

func TestSobolSecondDimension(t *testing.T) {
	seq, err := NewSobolSeq(2)
	if err != nil {
		t.Fatal(err)
	}
	// Known prefix of the 2-D Sobol sequence.
	want := [][]float64{{0, 0}, {0.5, 0.5}, {0.75, 0.25}, {0.25, 0.75}}
	for i, w := range want {
		got := seq.Next(nil)
		for d := range w {
			if math.Abs(got[d]-w[d]) > 1e-12 {
				t.Fatalf("point %d = %v, want %v", i, got, w)
			}
		}
	}
}

// sobolPoints returns the first n points of a fresh Sobol' sequence.
func sobolPoints(dim, n int) ([][]float64, error) {
	seq, err := NewSobolSeq(dim)
	if err != nil {
		return nil, err
	}
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = seq.Next(nil)
	}
	return pts, nil
}

func TestSobolBoundsAndDeterminism(t *testing.T) {
	for _, dim := range []int{1, 2, 5, 12, 21, 24, 40} {
		a, err := sobolPoints(dim, 256)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := sobolPoints(dim, 256)
		for i := range a {
			for d := 0; d < dim; d++ {
				if a[i][d] < 0 || a[i][d] >= 1 {
					t.Fatalf("dim %d point %d out of range: %v", dim, i, a[i][d])
				}
				if a[i][d] != b[i][d] {
					t.Fatal("Sobol sequence is not deterministic")
				}
			}
		}
	}
}

func TestSobolDimensionValidation(t *testing.T) {
	if _, err := NewSobolSeq(0); err == nil {
		t.Fatal("expected error for dim=0")
	}
	if _, err := NewSobolSeq(41); err == nil {
		t.Fatal("expected error for dim>40")
	}
}

func TestSobolEquidistribution(t *testing.T) {
	// For 2^k points, each half of each axis receives exactly half.
	pts, err := sobolPoints(5, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 5; d++ {
		var lo int
		for _, p := range pts {
			if p[d] < 0.5 {
				lo++
			}
		}
		if lo != 512 {
			t.Fatalf("dim %d: %d of 1024 in lower half", d, lo)
		}
	}
}

func TestLHSStratification(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, dim := 16, 4
	pts := LatinHypercube(n, dim, rng)
	for d := 0; d < dim; d++ {
		seen := make([]bool, n)
		for _, p := range pts {
			bin := int(p[d] * float64(n))
			if bin < 0 || bin >= n {
				t.Fatalf("point out of range: %v", p[d])
			}
			if seen[bin] {
				t.Fatalf("dim %d bin %d hit twice", d, bin)
			}
			seen[bin] = true
		}
	}
}

func TestLHSPropertyBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		dim := 1 + rng.Intn(8)
		pts := LatinHypercube(n, dim, rng)
		if len(pts) != n {
			return false
		}
		for _, p := range pts {
			for _, v := range p {
				if v < 0 || v >= 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSaltelliStructure(t *testing.T) {
	s, err := NewSaltelli(64, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.A) != 64 || len(s.B) != 64 || len(s.AB) != 3 {
		t.Fatalf("design sizes A=%d B=%d AB=%d", len(s.A), len(s.B), len(s.AB))
	}
	// AB_d must equal A except in column d, where it equals B.
	for d := 0; d < 3; d++ {
		for i := 0; i < 64; i++ {
			for c := 0; c < 3; c++ {
				want := s.A[i][c]
				if c == d {
					want = s.B[i][c]
				}
				if s.AB[d][i][c] != want {
					t.Fatalf("AB[%d][%d][%d] wrong", d, i, c)
				}
			}
		}
	}
}
