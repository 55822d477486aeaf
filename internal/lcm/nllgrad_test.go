package lcm

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

// gradModel stacks two tasks of the given sizes over [0,1]² with two
// latent processes, and returns standard-normal targets; under a
// categorical mask the second coordinate takes three codes.
func gradModel(typ kernel.Type, mask []bool, sizes [2]int, seed int64) (*Model, []float64) {
	rng := rand.New(rand.NewSource(seed))
	m := &Model{numTasks: 2, dim: 2, q: 2}
	for q := 0; q < m.q; q++ {
		m.kerns = append(m.kerns, &kernel.Kernel{Type: typ, Dim: m.dim, Categorical: mask})
	}
	var ys []float64
	for task, size := range sizes {
		for i := 0; i < size; i++ {
			x := []float64{rng.Float64(), rng.Float64()}
			if mask != nil {
				x[1] = float64(rng.Intn(3)) / 2
			}
			m.x = append(m.x, x)
			m.task = append(m.task, task)
			ys = append(ys, rng.NormFloat64())
		}
	}
	return m, ys
}

// refNLLGrad is nllGrad contracting materialised derivative matrices:
// each latent dK_q comes from kernel.MatrixGradsWorkers, and every sum
// runs in the order nllGrad keeps, so the two must agree bit for bit.
func refNLLGrad(m *Model, ys, theta []float64) (float64, []float64) {
	n := len(ys)
	grad := make([]float64, len(theta))
	penalty := 0.0
	pen := func(idx int, lo, hi float64) {
		const w = 10
		v := theta[idx]
		if v < lo {
			penalty += w * (lo - v) * (lo - v)
			grad[idx] += -2 * w * (lo - v)
		} else if v > hi {
			penalty += w * (v - hi) * (v - hi)
			grad[idx] += 2 * w * (v - hi)
		}
	}
	idx := 0
	for q := 0; q < m.q; q++ {
		for d := 0; d < m.dim; d++ {
			pen(idx, lcmLogLenLo, lcmLogLenHi)
			idx++
		}
		for t := 0; t < m.numTasks; t++ {
			pen(idx, lcmALo, lcmAHi)
			idx++
		}
		for t := 0; t < m.numTasks; t++ {
			pen(idx, lcmLogKapLo, lcmLogKapHi)
			idx++
		}
	}
	for t := 0; t < m.numTasks; t++ {
		pen(idx, lcmLogNoiseLo, lcmLogNoiseHi)
		idx++
	}
	ps := newLCMParams(m.q, m.dim, m.numTasks)
	ps.unpack(theta)
	baseK := make([]*linalg.Matrix, m.q)
	dK := make([][]*linalg.Matrix, m.q)
	bq := make([]*linalg.Matrix, m.q)
	for q := 0; q < m.q; q++ {
		baseK[q], dK[q] = m.kerns[q].MatrixGradsWorkers(m.x, ps.hyper[q], 0)
		bq[q] = linalg.NewMatrix(m.numTasks, m.numTasks)
		ps.fillB(q, bq[q])
	}
	K := linalg.NewMatrix(n, n)
	for a := 0; a < n; a++ {
		krow, ta := K.Row(a), m.task[a]
		for q := 0; q < m.q; q++ {
			ka := baseK[q].Row(a)
			for b := 0; b < n; b++ {
				krow[b] += bq[q].At(ta, m.task[b]) * ka[b]
			}
		}
		krow[a] += math.Exp(ps.logNoise[ta])
	}
	ch, err := linalg.NewCholesky(K)
	if err != nil {
		return math.Inf(1), grad
	}
	alpha := ch.SolveVec(ys)
	nll := 0.5*linalg.Dot(ys, alpha) + 0.5*ch.LogDet() + 0.5*float64(n)*math.Log(2*math.Pi)
	W := ch.Inverse()
	for a := 0; a < n; a++ {
		wa := W.Row(a)
		for b := 0; b < n; b++ {
			wa[b] -= alpha[a] * alpha[b]
		}
	}
	qBlock := m.dim + 2*m.numTasks
	noiseBase := m.q * qBlock
	for p := range theta {
		if p >= noiseBase {
			t := p - noiseBase
			var s float64
			for a := 0; a < n; a++ {
				if m.task[a] == t {
					s += W.At(a, a)
				}
			}
			grad[p] += 0.5 * math.Exp(ps.logNoise[t]) * s
			continue
		}
		q, r := p/qBlock, p%qBlock
		var s float64
		for a := 0; a < n; a++ {
			wa, ka, ta := W.Row(a), baseK[q].Row(a), m.task[a]
			for b := 0; b < n; b++ {
				tb := m.task[b]
				switch {
				case r < m.dim:
					s += wa[b] * bq[q].At(ta, tb) * dK[q][r].At(a, b)
				case r < m.dim+m.numTasks && ta == r-m.dim:
					s += wa[b] * ps.aq[q][tb] * ka[b]
				case r >= m.dim+m.numTasks && ta == r-m.dim-m.numTasks && tb == ta:
					s += wa[b] * ka[b]
				}
			}
		}
		switch {
		case r < m.dim:
			grad[p] += 0.5 * s
		case r < m.dim+m.numTasks:
			grad[p] += s
		default:
			grad[p] += 0.5 * math.Exp(ps.logKappa[q][r-m.dim-m.numTasks]) * s
		}
	}
	return nll + penalty, grad
}

// nllGrad reads each latent K and its length-scale factors and never
// builds dK; its value and every gradient component must equal the
// materialised contraction bit for bit, for every family, with and
// without a categorical dimension, at any worker count.
func TestNLLGradBitIdenticalToMaterialisedDK(t *testing.T) {
	sizes := map[int][2]int{1: {1, 0}, 2: {1, 1}, 7: {4, 3}, 33: {20, 13}}
	for _, workers := range []int{1, 4} {
		t.Setenv(parallel.EnvWorkers, strconv.Itoa(workers))
		for _, typ := range []kernel.Type{kernel.RBF, kernel.Matern32, kernel.Matern52} {
			for _, mask := range [][]bool{nil, {false, true}} {
				for _, n := range []int{1, 2, 7, 33} {
					m, ys := gradModel(typ, mask, sizes[n], int64(n)+int64(typ))
					sc := m.newFitScratch()
					rng := rand.New(rand.NewSource(int64(n)))
					for trial := 0; trial < 3; trial++ {
						theta := m.initTheta(rng, trial == 0)
						what := fmt.Sprintf("workers=%d %v mask=%v n=%d trial %d", workers, typ, mask, n, trial)
						f, grad := m.nllGrad(ys, theta, sc)
						rf, rgrad := refNLLGrad(m, ys, theta)
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

// Every packed parameter, length scales of a categorical dimension
// included, against central differences.
func TestNLLGradientMatchesNumeric(t *testing.T) {
	for _, typ := range []kernel.Type{kernel.RBF, kernel.Matern32, kernel.Matern52} {
		m, ys := gradModel(typ, []bool{false, true}, [2]int{8, 4}, 5)
		theta := m.initTheta(rand.New(rand.NewSource(99)), false)
		sc := m.newFitScratch()
		_, grad := m.nllGrad(ys, theta, sc)
		const eps = 1e-6
		for p := range theta {
			tp := append([]float64(nil), theta...)
			tp[p] += eps
			fp, _ := m.nllGrad(ys, tp, sc)
			tp[p] -= 2 * eps
			fm, _ := m.nllGrad(ys, tp, sc)
			num := (fp - fm) / (2 * eps)
			if math.Abs(num-grad[p]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("%v grad[%d]: analytic %v vs numeric %v", typ, p, grad[p], num)
			}
		}
	}
}
