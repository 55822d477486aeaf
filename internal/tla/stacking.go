package tla

import (
	"fmt"
	"math"
	"sort"

	"gptunecrowd/internal/core"
	"gptunecrowd/internal/gp"
)

// NewStacking returns the Vizier-style transfer model (Section V-D):
// source tasks are ordered by sample count (largest first), each
// successive task gets a GP fitted on the *residuals* against the
// accumulated mean, and the target's residual model — from two target
// rows on — is stacked last. Posterior means add; posterior standard
// deviations combine by sample-count-weighted geometric means.
func NewStacking(sources []*Source, mask []bool) *Model {
	var chain *stackChain // fitted at the first Fit: sources are static during a run
	return &Model{name: "Stacking", fit: func(X [][]float64, Y []float64, seed int64) (core.Predictor, error) {
		if chain == nil {
			var err error
			if chain, err = buildChain(sources, mask); err != nil {
				return nil, err
			}
		}
		surr := &stackedSurrogate{chain: chain, nTgt: len(X)}
		if len(X) < 2 {
			return surr, nil
		}
		resid := make([]float64, len(Y))
		for j := range Y {
			resid[j] = Y[j] - chain.meanAt(X[j])
		}
		g, err := targetFit(X, resid, gp.Options{Categorical: mask, Seed: seed})
		if err != nil {
			return surr, fmt.Errorf("%w: %v", ErrSourceOnly, err)
		}
		surr.target = g
		return surr, nil
	}}
}

// stackChain is the fitted source part of the stack.
type stackChain struct {
	gps    []*gp.GP // residual models, in stack order
	counts []int    // sample counts, aligned with gps
}

// meanAt returns the accumulated source mean M(x) = Σ μ'_i(x).
func (c *stackChain) meanAt(x []float64) float64 {
	var m float64
	for _, g := range c.gps {
		m += g.PredictMean(x)
	}
	return m
}

// stdAt returns the iterative weighted-geometric-mean std over the
// source chain: σ_i = (σ'_i)^β_i · (σ_{i−1})^{1−β_i} with
// β_i = n_i / (n_i + n_{i−1}).
func (c *stackChain) stdAt(x []float64) float64 {
	var std float64
	for i, g := range c.gps {
		_, s := g.Predict(x)
		if s < 1e-12 {
			s = 1e-12
		}
		if i == 0 {
			std = s
			continue
		}
		beta := float64(c.counts[i]) / float64(c.counts[i]+c.counts[i-1])
		std = math.Pow(s, beta) * math.Pow(std, 1-beta)
	}
	return std
}

// buildChain fits the source residual chain.
func buildChain(sources []*Source, mask []bool) (*stackChain, error) {
	ordered := append([]*Source(nil), sources...)
	sort.SliceStable(ordered, func(a, b int) bool { return ordered[a].Len() > ordered[b].Len() })
	chain := &stackChain{}
	for i, src := range ordered {
		ys := src.Y
		if i > 0 {
			ys = make([]float64, len(src.Y))
			for j, y := range src.Y {
				ys[j] = y - chain.meanAt(src.X[j])
			}
		}
		g, err := gp.Fit(src.X, ys, gp.Options{Categorical: mask, Seed: int64(i + 1)})
		if err != nil {
			return nil, fmt.Errorf("tla: stacking source %q: %w", src.Name, err)
		}
		chain.gps = append(chain.gps, g)
		chain.counts = append(chain.counts, src.Len())
	}
	return chain, nil
}

// stackedSurrogate is the full stack including the target residual model.
type stackedSurrogate struct {
	chain  *stackChain
	target *gp.GP // may be nil (no target samples yet)
	nTgt   int
}

// Predict implements core.Predictor.
func (s *stackedSurrogate) Predict(x []float64) (float64, float64) {
	mean := s.chain.meanAt(x)
	srcStd := s.chain.stdAt(x)
	if s.target == nil {
		return mean, srcStd
	}
	tm, ts := s.target.Predict(x)
	if ts < 1e-12 {
		ts = 1e-12
	}
	mean += tm
	nSrcLast := s.chain.counts[len(s.chain.counts)-1]
	beta := float64(s.nTgt) / float64(s.nTgt+nSrcLast)
	return mean, math.Pow(ts, beta) * math.Pow(srcStd, 1-beta)
}
