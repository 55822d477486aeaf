// Package stat provides the probability and descriptive-statistics
// helpers used by the surrogate models, acquisition functions and the
// Sobol sensitivity estimators: normal distribution functions, summary
// statistics, correlation measures and bootstrap resampling.
package stat

import (
	"math"
	"math/rand"
	"sort"
)

const invSqrt2Pi = 0.3989422804014327 // 1/√(2π)

// NormPDF returns the standard normal density at z.
func NormPDF(z float64) float64 {
	return invSqrt2Pi * math.Exp(-0.5*z*z)
}

// NormCDF returns the standard normal cumulative distribution at z.
func NormCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormQuantile returns the inverse standard normal CDF using the
// Acklam rational approximation (relative error < 1.15e-9), refined by
// one Halley step. Panics for p outside (0, 1).
func NormQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("stat: NormQuantile requires 0 < p < 1")
	}
	// Coefficients from Peter Acklam's algorithm.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= phigh:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step.
	e := NormCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (0 for fewer than two
// values).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return s / float64(n)
}

// SampleVariance returns the unbiased (n−1) variance estimate.
func SampleVariance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	return Variance(xs) * float64(n) / float64(n-1)
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Standardize returns the mean and population standard deviation of y
// and the scores z_i = (y_i − mean)/sd the surrogate models fit. An sd
// below 1e-12 (one value, or constant values) is taken as 1 so the
// scores stay finite.
func Standardize(y []float64) (mean, sd float64, z []float64) {
	mean, sd = Mean(y), StdDev(y)
	if sd < 1e-12 {
		sd = 1
	}
	z = make([]float64, len(y))
	for i, v := range y {
		z[i] = (v - mean) / sd
	}
	return mean, sd, z
}

// Min returns the minimum of xs; panics on empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stat: Min of empty slice")
	}
	m := xs[0]
	for _, v := range xs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum of xs; panics on empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stat: Max of empty slice")
	}
	m := xs[0]
	for _, v := range xs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stat: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic("stat: quantile out of range")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Pearson returns the Pearson correlation coefficient of x and y.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("stat: Pearson length mismatch")
	}
	if len(x) < 2 {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns the Spearman rank correlation of x and y.
func Spearman(x, y []float64) float64 {
	return Pearson(Ranks(x), Ranks(y))
}

// Ranks returns the (average-tie) ranks of xs, 1-based.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// Bootstrap draws nboot resampled replicates of statistic(sample) and
// returns them. The statistic receives index slices into the original
// data so callers can resample multiple aligned arrays consistently.
func Bootstrap(n, nboot int, rng *rand.Rand, statistic func(idx []int) float64) []float64 {
	out := make([]float64, nboot)
	idx := make([]int, n)
	for b := 0; b < nboot; b++ {
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		out[b] = statistic(idx)
	}
	return out
}

// BootstrapConf returns the half-width of the (1−alpha) normal-theory
// bootstrap confidence interval of the replicates, matching SALib's
// convention (z * std of replicates).
func BootstrapConf(replicates []float64, alpha float64) float64 {
	if len(replicates) < 2 {
		return 0
	}
	z := NormQuantile(1 - alpha/2)
	return z * math.Sqrt(SampleVariance(replicates))
}
