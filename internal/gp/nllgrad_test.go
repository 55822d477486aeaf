package gp

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"gptunecrowd/internal/kernel"
	"gptunecrowd/internal/linalg"
	"gptunecrowd/internal/parallel"
)

// gradFixture returns n points in [0,1]² and standard-normal targets;
// under a categorical mask the second coordinate takes three codes, so
// both Hamming cases occur.
func gradFixture(n int, mask []bool, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	ys := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64()}
		if mask != nil {
			X[i][1] = float64(rng.Intn(3)) / 2
		}
		ys[i] = rng.NormFloat64()
	}
	return X, ys
}

// refNLLGrad is nllGrad contracting materialised derivative matrices:
// dK comes from kernel.MatrixGradsWorkers, and every sum runs in the
// order nllGrad keeps, so the two must agree bit for bit.
func refNLLGrad(g *GP, ys, theta []float64) (float64, []float64) {
	dim := g.kern.Dim
	n := len(ys)
	h := kernel.NewHyper(dim)
	h.Unpack(theta[:dim+1])
	logNoise := theta[dim+1]
	grad := make([]float64, dim+2)
	penalty := 0.0
	pen := func(idx int, v, lo, hi float64) {
		const w = 10
		if v < lo {
			penalty += w * (lo - v) * (lo - v)
			grad[idx] += -2 * w * (lo - v)
		} else if v > hi {
			penalty += w * (v - hi) * (v - hi)
			grad[idx] += 2 * w * (v - hi)
		}
	}
	for d := 0; d < dim; d++ {
		pen(d, theta[d], logLenLo, logLenHi)
	}
	pen(dim, theta[dim], logVarLo, logVarHi)
	pen(dim+1, logNoise, logNoiseLo, logNoiseHi)

	K, dK := g.kern.MatrixGradsWorkers(g.x, h, 0)
	noiseVar := math.Exp(logNoise)
	K.AddDiag(noiseVar)
	ch, err := linalg.NewCholesky(K)
	if err != nil {
		return math.Inf(1), grad
	}
	alpha := ch.SolveVec(ys)
	nll := 0.5*linalg.Dot(ys, alpha) + 0.5*ch.LogDet() + 0.5*float64(n)*math.Log(2*math.Pi)
	Kinv := ch.Inverse()
	for p := 0; p <= dim; p++ {
		var tr, quad float64
		for i := 0; i < n; i++ {
			rowK, rowD, ai := Kinv.Row(i), dK[p].Row(i), alpha[i]
			var trOff, quadOff float64
			for j := i + 1; j < n; j++ {
				trOff += rowK[j] * rowD[j]
				quadOff += rowD[j] * alpha[j]
			}
			tr += rowK[i]*rowD[i] + 2*trOff
			quad += ai * (rowD[i]*ai + 2*quadOff)
		}
		grad[p] += 0.5*tr - 0.5*quad
	}
	var trInv, aa float64
	for i := 0; i < n; i++ {
		trInv += Kinv.At(i, i)
		aa += alpha[i] * alpha[i]
	}
	grad[dim+1] += 0.5 * noiseVar * (trInv - aa)
	return nll + penalty, grad
}

// nllGrad reads K and the length-scale factors and never builds dK; its
// value and every gradient component must equal the materialised
// contraction bit for bit, for every family, with and without a
// categorical dimension, at any worker count.
func TestNLLGradBitIdenticalToMaterialisedDK(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Setenv(parallel.EnvWorkers, strconv.Itoa(workers))
		for _, typ := range []kernel.Type{kernel.RBF, kernel.Matern32, kernel.Matern52} {
			for _, mask := range [][]bool{nil, {false, true}} {
				for _, n := range []int{1, 2, 7, 33} {
					X, ys := gradFixture(n, mask, int64(n)+int64(typ))
					g := &GP{kern: &kernel.Kernel{Type: typ, Dim: 2, Categorical: mask}, x: X}
					sc := newFitScratch(2, n)
					rng := rand.New(rand.NewSource(int64(n)))
					for trial := 0; trial < 3; trial++ {
						theta := []float64{
							math.Log(0.05) + 4*rng.Float64(), math.Log(0.05) + 4*rng.Float64(),
							rng.NormFloat64() * 0.5, math.Log(1e-4) + 6*rng.Float64(),
						}
						what := fmt.Sprintf("workers=%d %v mask=%v n=%d trial %d", workers, typ, mask, n, trial)
						f, grad := g.nllGrad(ys, theta, sc)
						rf, rgrad := refNLLGrad(g, ys, theta)
						if math.Float64bits(f) != math.Float64bits(rf) {
							t.Fatalf("%s: nll %v, materialised %v", what, f, rf)
						}
						for p := range grad {
							if math.Float64bits(grad[p]) != math.Float64bits(rgrad[p]) {
								t.Fatalf("%s: grad[%d] %v, materialised %v", what, p, grad[p], rgrad[p])
							}
						}
					}
				}
			}
		}
	}
}

func TestNLLGradientMatchesNumeric(t *testing.T) {
	for _, typ := range []kernel.Type{kernel.RBF, kernel.Matern32, kernel.Matern52} {
		for _, mask := range [][]bool{nil, {false, true}} {
			n, dim := 12, 2
			X, ys := gradFixture(n, mask, 11)
			g := &GP{kern: &kernel.Kernel{Type: typ, Dim: dim, Categorical: mask}, x: X}
			theta := []float64{math.Log(0.4), math.Log(0.8), 0.2, math.Log(1e-2)}
			sc := newFitScratch(dim, n)
			_, grad := g.nllGrad(ys, theta, sc)
			const eps = 1e-6
			for p := range theta {
				tp := append([]float64(nil), theta...)
				tp[p] += eps
				fp, _ := g.nllGrad(ys, tp, sc)
				tp[p] -= 2 * eps
				fm, _ := g.nllGrad(ys, tp, sc)
				num := (fp - fm) / (2 * eps)
				if math.Abs(num-grad[p]) > 1e-4*(1+math.Abs(num)) {
					t.Fatalf("%v mask=%v grad[%d]: analytic %v vs numeric %v", typ, mask, p, grad[p], num)
				}
			}
		}
	}
}
