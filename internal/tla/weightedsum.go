package tla

import (
	"fmt"
	"math"

	"gptunecrowd/internal/core"
	"gptunecrowd/internal/gp"
	"gptunecrowd/internal/linalg"
)

// NewWeightedSum returns the HiPerBOt-style transfer model: a weighted
// combination of per-task GP surrogates (paper Section V-B/V-C, Eqs.
// 1-2). WeightedSum(equal) weighs every task alike; with dynamic set
// the weights are re-estimated at every fit by the linear-regression
// scheme of Section V-C (GPTuneCrowd's improvement). The target
// surrogate joins the mix from two target rows on.
func NewWeightedSum(sources []*Source, dynamic bool, mask []bool) *Model {
	name := "WeightedSum(equal)"
	if dynamic {
		name = "WeightedSum(dynamic)"
	}
	return &Model{name: name, fit: func(X [][]float64, Y []float64, seed int64) (core.Predictor, error) {
		models, err := sourceModels(sources, mask)
		if err != nil {
			return nil, err
		}
		var soft error
		if len(X) >= 2 {
			tgt, err := targetFit(X, Y, gp.Options{Categorical: mask, Seed: seed})
			if err != nil {
				soft = fmt.Errorf("%w: %v", ErrSourceOnly, err)
			} else {
				models = append(models, tgt)
			}
		}
		weights := equalWeights(len(models))
		if dynamic {
			weights = dynamicWeights(models, X, Y)
		}
		comb := &weightedSurrogate{weights: weights}
		for _, m := range models {
			comb.models = append(comb.models, m)
		}
		return comb, soft
	}}
}

func equalWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1.0 / float64(n)
	}
	return w
}

// dynamicWeights estimates normalized weights aligned with models
// ([sources..., target?]) by the scheme of Section V-C, falling back to
// equal weights when the regression has nothing to work with. It needs
// at least two target samples to form non-trivial rows.
func dynamicWeights(models []*gp.GP, X [][]float64, Y []float64) []float64 {
	n := len(models)
	equal := equalWeights(n)
	if len(X) < 2 {
		return equal
	}
	// Incumbent.
	bestIdx := 0
	for i, v := range Y {
		if v < Y[bestIdx] {
			bestIdx = i
		}
	}
	xStar, yStar := X[bestIdx], Y[bestIdx]
	yScale := math.Abs(yStar)
	if yScale < 1e-12 {
		yScale = 1
	}
	// Per-model normalizers μ_i(x*).
	muStar := make([]float64, n)
	for i, m := range models {
		muStar[i] = m.PredictMean(xStar)
	}
	// Design matrix: one row per observed target sample (excluding the
	// incumbent row, which is identically zero).
	A := linalg.NewMatrix(len(X)-1, n)
	rhs := make([]float64, 0, len(X)-1)
	for j := range X {
		if j == bestIdx {
			continue
		}
		row := A.Row(len(rhs))
		for i, m := range models {
			scale := math.Abs(muStar[i])
			if scale < 1e-12 {
				scale = 1
			}
			row[i] = (muStar[i] - m.PredictMean(X[j])) / scale
		}
		rhs = append(rhs, (yStar-Y[j])/yScale)
	}
	sol, err := linalg.RidgeLeastSquares(A, rhs, 1e-6)
	if err != nil {
		return equal
	}
	// Clip negatives and renormalize (documented deviation: keeps the
	// geometric-mean std of Eq. (2) well defined).
	for i, v := range sol {
		if v < 0 || math.IsNaN(v) {
			sol[i] = 0
		}
	}
	if !normalizeWeights(sol) {
		return equal
	}
	return sol
}

// normalizeWeights scales weights to sum to one; returns false when the
// sum is not positive.
func normalizeWeights(w []float64) bool {
	var s float64
	for _, v := range w {
		s += v
	}
	if s <= 1e-12 {
		return false
	}
	for i := range w {
		w[i] /= s
	}
	return true
}
