// Package tla implements GPTuneCrowd's transfer-learning algorithm pool
// (Table I of the paper): Multitask(PS), Multitask(TS),
// WeightedSum(static/equal), WeightedSum(dynamic), Stacking, and the
// proposed Ensemble, plus the simpler Ensemble(toggling) and
// Ensemble(prob) baselines. Every algorithm is a core.Proposer that can
// be dropped into the tuning loop.
package tla

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"gptunecrowd/internal/core"
	"gptunecrowd/internal/gp"
	"gptunecrowd/internal/kernel"
)

// Source is a pre-collected dataset for one source task: parameter
// points (normalized to the target problem's unit hypercube) and their
// measured objective values. These are the crowd-contributed samples
// downloaded from the shared database.
type Source struct {
	Name string
	X    [][]float64
	Y    []float64

	model    *gp.GP
	modelErr error
}

// NewSource wraps a source dataset. It panics when X and Y disagree.
func NewSource(name string, X [][]float64, Y []float64) *Source {
	if len(X) != len(Y) {
		panic(fmt.Sprintf("tla: source %q has %d inputs but %d outputs", name, len(X), len(Y)))
	}
	return &Source{Name: name, X: X, Y: Y}
}

// Len returns the number of samples.
func (s *Source) Len() int { return len(s.X) }

// Model lazily fits (and caches) a GP surrogate on the source data.
func (s *Source) Model(mask []bool, kern kernel.Type, seed int64) (*gp.GP, error) {
	if s.model == nil && s.modelErr == nil {
		s.model, s.modelErr = gp.Fit(s.X, s.Y, gp.Options{
			Kernel:      kern,
			Categorical: mask,
			Seed:        seed,
		})
	}
	return s.model, s.modelErr
}

// Subsample returns a source restricted to at most n samples, chosen
// uniformly at random but always including the best observation (losing
// the source optimum would throw away the most transferable knowledge).
func (s *Source) Subsample(n int, rng *rand.Rand) *Source {
	return s.pick(s.subsampleIndices(n, rng))
}

// subsampleIndices draws the samples Subsample keeps; nil keeps all.
func (s *Source) subsampleIndices(n int, rng *rand.Rand) []int {
	if n <= 0 || s.Len() <= n {
		return nil
	}
	bestIdx := 0
	for i, v := range s.Y {
		if v < s.Y[bestIdx] {
			bestIdx = i
		}
	}
	perm := rng.Perm(s.Len())
	idx := make([]int, 0, n)
	idx = append(idx, bestIdx)
	for _, p := range perm {
		if len(idx) == n {
			break
		}
		if p != bestIdx {
			idx = append(idx, p)
		}
	}
	return idx
}

// pick returns the source restricted to the samples at idx (nil keeps
// the source whole).
func (s *Source) pick(idx []int) *Source {
	if idx == nil {
		return s
	}
	X := make([][]float64, len(idx))
	Y := make([]float64, len(idx))
	for i, p := range idx {
		X[i] = s.X[p]
		Y[i] = s.Y[p]
	}
	return NewSource(s.Name, X, Y)
}

// CappedSources is a source list with every source capped at n samples
// (see Subsample). The LCM-based tuners draw it once per run, so it is
// state their checkpoints carry: it marshals to the kept sample indices
// (null where a source was kept whole) and RestoreCappedSources rebuilds
// the same views from them.
type CappedSources struct {
	Views []*Source
	idx   [][]int
}

// CapSources draws the capped view of sources.
func CapSources(sources []*Source, n int, rng *rand.Rand) *CappedSources {
	c := &CappedSources{Views: make([]*Source, len(sources)), idx: make([][]int, len(sources))}
	for i, s := range sources {
		c.idx[i] = s.subsampleIndices(n, rng)
		c.Views[i] = s.pick(c.idx[i])
	}
	return c
}

// MarshalJSON implements json.Marshaler.
func (c *CappedSources) MarshalJSON() ([]byte, error) { return json.Marshal(c.idx) }

// RestoreCappedSources rebuilds a marshaled CappedSources over the same
// sources; JSON null (nothing drawn yet) restores nil. Index sets that
// do not fit the sources are rejected: checkpoints arrive through the
// crowd task pool, so their content is untrusted.
func RestoreCappedSources(sources []*Source, data []byte) (*CappedSources, error) {
	var idx [][]int
	if err := json.Unmarshal(data, &idx); err != nil || idx == nil {
		return nil, err
	}
	if len(idx) != len(sources) {
		return nil, fmt.Errorf("tla: subsample of %d sources restored onto %d", len(idx), len(sources))
	}
	c := &CappedSources{Views: make([]*Source, len(sources)), idx: idx}
	for i, s := range sources {
		for _, p := range idx[i] {
			if p < 0 || p >= s.Len() {
				return nil, fmt.Errorf("tla: subsample index %d outside source %q of %d samples", p, s.Name, s.Len())
			}
		}
		c.Views[i] = s.pick(idx[i])
	}
	return c, nil
}

// ErrNoSources is returned when a TLA proposer is constructed without
// source data.
var ErrNoSources = errors.New("tla: transfer learning requires at least one source task")

// sourceModels fits every source surrogate, returning an error when any
// fit fails.
func sourceModels(sources []*Source, mask []bool, kern kernel.Type, seed int64) ([]*gp.GP, error) {
	models := make([]*gp.GP, len(sources))
	for i, s := range sources {
		m, err := s.Model(mask, kern, seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("tla: source %q surrogate: %w", s.Name, err)
		}
		models[i] = m
	}
	return models, nil
}

// equalWeightFirstEval implements the paper's convention for the very
// first target evaluation: with no target information, search the
// equal-weight combination of the source surrogates. Exploitation is
// appropriate here (there is no incumbent for EI), so we minimize the
// combined LCB.
func equalWeightFirstEval(ctx *core.ProposeContext, sources []*Source, kern kernel.Type) ([]float64, error) {
	models, err := sourceModels(sources, ctx.Problem.CategoricalMask(), kern, 1)
	if err != nil {
		return nil, err
	}
	w := make([]float64, len(models))
	surrs := make([]core.Predictor, len(models))
	for i := range w {
		w[i] = 1.0 / float64(len(models))
		surrs[i] = models[i]
	}
	comb := &weightedSurrogate{models: surrs, weights: w}
	return core.SearchNext(comb, ctx.Problem.ParamSpace, core.LCB{Kappa: 1.0}, ctx.History, ctx.Rng, ctx.Search), nil
}

// weightedSurrogate combines surrogates per the paper's Eqs. (1)–(2):
// arithmetic weighted mean of means and geometric weighted mean of
// standard deviations.
type weightedSurrogate struct {
	models  []core.Predictor
	weights []float64
}

// Predict implements core.Predictor.
func (w *weightedSurrogate) Predict(x []float64) (float64, float64) {
	var mean float64
	logStd := 0.0
	for i, m := range w.models {
		mu, sd := m.Predict(x)
		mean += w.weights[i] * mu
		if sd < 1e-12 {
			sd = 1e-12
		}
		logStd += w.weights[i] * math.Log(sd)
	}
	return mean, math.Exp(logStd)
}
