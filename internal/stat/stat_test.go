package stat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormPDFCDFKnown(t *testing.T) {
	if math.Abs(NormPDF(0)-0.3989422804014327) > 1e-15 {
		t.Fatalf("NormPDF(0) = %v", NormPDF(0))
	}
	if math.Abs(NormCDF(0)-0.5) > 1e-15 {
		t.Fatalf("NormCDF(0) = %v", NormCDF(0))
	}
	if math.Abs(NormCDF(1.959963984540054)-0.975) > 1e-12 {
		t.Fatalf("NormCDF(1.96) = %v", NormCDF(1.959963984540054))
	}
}

func TestNormQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-6, 0.01, 0.025, 0.1, 0.5, 0.9, 0.975, 0.99, 1 - 1e-6} {
		z := NormQuantile(p)
		if got := NormCDF(z); math.Abs(got-p) > 1e-9 {
			t.Fatalf("round trip p=%v: got %v", p, got)
		}
	}
}

func TestNormQuantilePanics(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for p=%v", p)
				}
			}()
			NormQuantile(p)
		}()
	}
}

func TestDescriptive(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if Variance(xs) != 4 {
		t.Fatalf("Variance = %v", Variance(xs))
	}
	if StdDev(xs) != 2 {
		t.Fatalf("StdDev = %v", StdDev(xs))
	}
	if Min(xs) != 2 || Max(xs) != 9 {
		t.Fatalf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("empty-input conventions violated")
	}
}

func TestStandardize(t *testing.T) {
	mean, sd, z := Standardize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mean != 5 || sd != 2 || z[0] != -1.5 || z[7] != 2 {
		t.Fatalf("Standardize = %v, %v, %v", mean, sd, z)
	}
	// Degenerate spreads fall back to sd = 1, so scores stay finite:
	// one value, constant values, and a spread below 1e-12.
	for _, y := range [][]float64{{3}, {7, 7, 7}, {1, 1 + 1e-13}} {
		mean, sd, z := Standardize(y)
		if sd != 1 || mean != Mean(y) {
			t.Fatalf("Standardize(%v): mean %v sd %v, want mean %v sd 1", y, mean, sd, Mean(y))
		}
		for i, v := range y {
			if z[i] != v-mean {
				t.Fatalf("Standardize(%v): z = %v", y, z)
			}
		}
	}
}

func TestSampleVariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	// Sample variance = 5/3.
	if math.Abs(SampleVariance(xs)-5.0/3.0) > 1e-12 {
		t.Fatalf("SampleVariance = %v", SampleVariance(xs))
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 4 {
		t.Fatal("extreme quantiles wrong")
	}
	if got := Quantile(xs, 0.5); got != 2.5 {
		t.Fatalf("median = %v", got)
	}
	// Input must not be mutated.
	if xs[0] != 3 {
		t.Fatal("Quantile mutated input")
	}
}

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	if math.Abs(Pearson(x, y)-1) > 1e-12 {
		t.Fatalf("Pearson = %v", Pearson(x, y))
	}
	yneg := []float64{8, 6, 4, 2}
	if math.Abs(Pearson(x, yneg)+1) > 1e-12 {
		t.Fatalf("Pearson = %v", Pearson(x, yneg))
	}
	if Pearson(x, []float64{5, 5, 5, 5}) != 0 {
		t.Fatal("constant series should yield 0")
	}
}

func TestSpearmanMonotone(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{1, 8, 27, 64, 125} // monotone nonlinear
	if math.Abs(Spearman(x, y)-1) > 1e-12 {
		t.Fatalf("Spearman = %v", Spearman(x, y))
	}
}

func TestRanksTies(t *testing.T) {
	r := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("Ranks = %v", r)
		}
	}
}

func TestBootstrapMeanConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	data := make([]float64, 500)
	for i := range data {
		data[i] = rng.NormFloat64() + 3
	}
	reps := Bootstrap(len(data), 200, rng, func(idx []int) float64 {
		var s float64
		for _, i := range idx {
			s += data[i]
		}
		return s / float64(len(idx))
	})
	if m := Mean(reps); math.Abs(m-3) > 0.2 {
		t.Fatalf("bootstrap mean = %v", m)
	}
	conf := BootstrapConf(reps, 0.05)
	if conf <= 0 || conf > 0.5 {
		t.Fatalf("bootstrap conf = %v", conf)
	}
}

func TestNormCDFMonotoneProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return NormCDF(lo) <= NormCDF(hi)+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
