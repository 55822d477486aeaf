// Package tla holds the source datasets of transfer learning and the
// model math of the paper's Table I: the capped source views the LCM
// of Multitask(TS) is fitted on, Multitask(PS), WeightedSum(equal) and
// WeightedSum(dynamic) (Eqs. 1-2), and Stacking. Every model is a
// core.Surrogate — a fit rule from the target rows to a predictor —
// and none proposes anything: internal/surrogate owns the propose step
// and the rule that picks a model per evaluation (Eqs. 3-4).
package tla

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"gptunecrowd/internal/core"
	"gptunecrowd/internal/gp"
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
// (see Subsample). TrueSampleLCM draws it once per run, so it is state
// the checkpoint carries: it marshals to the kept sample indices (null
// where a source was kept whole) and RestoreCappedSources rebuilds the
// same views from them.
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

// ErrNoSources is returned when a source-fed model or tuner is built
// without source data.
var ErrNoSources = errors.New("tla: transfer learning requires at least one source task")

// sourceModels returns the GP surrogate of every source, fitted on first
// use and cached on the Source (sources are static during a run, and
// one dataset often feeds several tuners).
func sourceModels(sources []*Source, mask []bool) ([]*gp.GP, error) {
	models := make([]*gp.GP, len(sources))
	for i, s := range sources {
		if s.model == nil && s.modelErr == nil {
			s.model, s.modelErr = gp.Fit(s.X, s.Y, gp.Options{Categorical: mask, Seed: int64(1 + i)})
		}
		if s.modelErr != nil {
			return nil, fmt.Errorf("tla: source %q surrogate: %w", s.Name, s.modelErr)
		}
		models[i] = s.model
	}
	return models, nil
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
