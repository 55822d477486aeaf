package tla

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"gptunecrowd/internal/core"
	"gptunecrowd/internal/gp"
	"gptunecrowd/internal/lcm"
	"gptunecrowd/internal/parallel"
	"gptunecrowd/internal/sample"
	"gptunecrowd/internal/space"
)

// lcmSlice exposes one task of a fitted LCM as a core.BatchPredictor.
type lcmSlice struct {
	m    *lcm.Model
	task int
}

// Predict implements core.Predictor. A prediction error (out-of-range
// task, bad input) answers +Inf mean so the acquisition search never
// selects the point, instead of crashing the session.
func (s lcmSlice) Predict(x []float64) (float64, float64) {
	mean, std, err := s.m.Predict(s.task, x)
	if err != nil {
		return math.Inf(1), 0
	}
	return mean, std
}

// PredictBatchInto implements core.BatchPredictor, fanning the
// (independent, deterministic) per-point predictions out over workers.
func (s lcmSlice) PredictBatchInto(X [][]float64, means, stds []float64, workers int) {
	parallel.For(len(X), workers, func(i int) {
		means[i], stds[i] = s.Predict(X[i])
	})
}

// TrueSampleLCM is the model of Multitask(TS), GPTuneCrowd's improved
// multitask learner (Section V-A-2): the true samples of every source —
// capped per source, cubic cost in the total — plus the target rows
// form the LCM's task stack, target last, so unequal per-task counts
// are exploited; predictions come from the target slice.
type TrueSampleLCM struct {
	*Model
	sources []*Source
	sub     *CappedSources // drawn at the first fit
}

// NewTrueSampleLCM returns the model over sources capped at maxSamples
// each (see Source.Subsample).
func NewTrueSampleLCM(sources []*Source, maxSamples int, mask []bool) *TrueSampleLCM {
	m := &TrueSampleLCM{sources: sources}
	m.Model = &Model{name: "lcm", fit: func(X [][]float64, Y []float64, seed int64) (core.Predictor, error) {
		if m.sub == nil {
			// Deterministic subsample: seeded from the first fit's seed and
			// cached, so later refits see the same source rows.
			m.sub = CapSources(sources, maxSamples, rand.New(rand.NewSource(seed)))
		}
		tasksX := make([][][]float64, 0, len(sources)+1)
		tasksY := make([][]float64, 0, len(sources)+1)
		for _, s := range m.sub.Views {
			tasksX = append(tasksX, s.X)
			tasksY = append(tasksY, s.Y)
		}
		model, err := lcmFit(append(tasksX, X), append(tasksY, Y), lcm.Options{Categorical: mask, Seed: seed})
		if err != nil {
			return nil, err
		}
		return lcmSlice{m: model, task: len(sources)}, nil
	}}
	// The O((Σnᵢ)³) stacked fit, over the capped per-source counts
	// actually fed to the LCM.
	m.cost = func(n int) float64 {
		total := float64(n)
		for _, s := range sources {
			total += float64(min(s.Len(), maxSamples))
		}
		return 3e-9 * total * total * total
	}
	return m
}

// StateCheckpoint serializes the source subsample: it depends on which
// fit came first in the run, so a resumed run cannot redraw it.
func (m *TrueSampleLCM) StateCheckpoint() ([]byte, error) { return json.Marshal(m.sub) }

// RestoreState restores a subsample serialized by StateCheckpoint.
func (m *TrueSampleLCM) RestoreState(data []byte) (err error) {
	m.sub, err = RestoreCappedSources(m.sources, data)
	return err
}

// MultitaskPS is the 2021-GPTune multitask model (Section V-A-1): the
// source tasks contribute *pseudo samples* drawn from their pre-trained
// black-box surrogate models rather than raw data. Every fit the LCM
// also proposes a point for each source task; those are "evaluated" by
// the source surrogate mean and appended as pseudo samples for the next
// fit, while the target slice is what the caller searches.
type MultitaskPS struct {
	*Model
	sources []*Source
	mask    []bool
	space   *space.Space
	search  core.SearchOptions

	pseudoX [][][]float64
	pseudoY [][]float64
}

// NewMultitaskPS returns the Multitask(PS) model. BindSearch must be
// called before the first Fit.
func NewMultitaskPS(sources []*Source, mask []bool) *MultitaskPS {
	m := &MultitaskPS{sources: sources, mask: mask}
	m.Model = &Model{name: "Multitask(PS)", fit: m.fitPseudo}
	return m
}

// BindSearch hands the model what its per-source pseudo-sample searches
// need: the parameter space and the caller's acquisition-search
// options.
func (m *MultitaskPS) BindSearch(sp *space.Space, opts core.SearchOptions) {
	m.space, m.search = sp, opts
}

func (m *MultitaskPS) fitPseudo(X [][]float64, Y []float64, seed int64) (core.Predictor, error) {
	if m.space == nil {
		return nil, fmt.Errorf("tla: Multitask(PS) fitted before BindSearch")
	}
	models, err := sourceModels(m.sources, m.mask)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	if m.pseudoX == nil {
		m.seedPseudo(models, rng)
	}
	tasksX := append(append([][][]float64(nil), m.pseudoX...), X)
	tasksY := append(append([][]float64(nil), m.pseudoY...), Y)
	model, err := lcmFit(tasksX, tasksY, lcm.Options{Categorical: m.mask, Seed: rng.Int63()})
	if err != nil {
		return nil, err
	}
	// Advance each source with one new pseudo sample proposed by the
	// joint model and answered by the source's black-box surrogate mean.
	for i, srcModel := range models {
		hist := pseudoHistory(m.pseudoX[i], m.pseudoY[i])
		u := core.SearchNext(lcmSlice{m: model, task: i}, m.space, core.EI{}, hist, rng, m.search)
		m.pseudoX[i] = append(m.pseudoX[i], u)
		m.pseudoY[i] = append(m.pseudoY[i], srcModel.PredictMean(u))
	}
	return lcmSlice{m: model, task: len(models)}, nil
}

// pseudoState is MultitaskPS's checkpoint payload: the pseudo samples
// accumulate across fits and are not derivable from the history.
type pseudoState struct {
	X [][][]float64 `json:"x"`
	Y [][]float64   `json:"y"`
}

// StateCheckpoint serializes the pseudo samples.
func (m *MultitaskPS) StateCheckpoint() ([]byte, error) {
	return json.Marshal(pseudoState{X: m.pseudoX, Y: m.pseudoY})
}

// RestoreState restores pseudo samples serialized by StateCheckpoint.
func (m *MultitaskPS) RestoreState(data []byte) error {
	var st pseudoState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("tla: Multitask(PS) state: %w", err)
	}
	if st.X != nil && (len(st.X) != len(m.sources) || len(st.Y) != len(m.sources)) {
		return fmt.Errorf("tla: Multitask(PS) state has pseudo samples for %d/%d sources, want %d", len(st.X), len(st.Y), len(m.sources))
	}
	for i := range st.X {
		if len(st.X[i]) != len(st.Y[i]) {
			return fmt.Errorf("tla: Multitask(PS) state source %d has %d inputs but %d outputs", i, len(st.X[i]), len(st.Y[i]))
		}
	}
	m.pseudoX, m.pseudoY = st.X, st.Y
	return nil
}

// seedPseudo initializes the per-source pseudo-sample sets from a Latin
// hypercube of max(4, dim+2) points answered by each source surrogate's
// mean.
func (m *MultitaskPS) seedPseudo(models []*gp.GP, rng *rand.Rand) {
	dim := m.space.Dim()
	nInit := max(4, dim+2)
	m.pseudoX = make([][][]float64, len(models))
	m.pseudoY = make([][]float64, len(models))
	for i, model := range models {
		pts := sample.LatinHypercube(nInit, dim, rng)
		ys := make([]float64, nInit)
		for j, u := range pts {
			ys[j] = model.PredictMean(u)
		}
		m.pseudoX[i] = pts
		m.pseudoY[i] = ys
	}
}

// pseudoHistory wraps a pseudo-sample set as a History so the shared
// acquisition search can dedup against it.
func pseudoHistory(X [][]float64, Y []float64) *core.History {
	h := &core.History{}
	for i := range X {
		h.Append(core.Sample{ParamU: X[i], Y: Y[i]})
	}
	return h
}
