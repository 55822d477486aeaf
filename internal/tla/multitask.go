package tla

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"gptunecrowd/internal/core"
	"gptunecrowd/internal/gp"
	"gptunecrowd/internal/kernel"
	"gptunecrowd/internal/lcm"
	"gptunecrowd/internal/sample"
)

// lcmFit substitutes the LCM fit in tests (fit-degradation coverage).
var lcmFit = lcm.Fit

// lcmSlice exposes one task of a fitted LCM as a core.Predictor.
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

// MultitaskTS is GPTuneCrowd's improved multitask proposer
// (Section V-A-2): it feeds the true source samples into the LCM,
// exploiting unequal per-task sample counts, and asks the joint model to
// propose points only for the target task.
type MultitaskTS struct {
	Sources []*Source
	Kernel  kernel.Type
	// MaxSourceSamples caps the per-source sample count fed to the LCM
	// (cubic cost in the total count). 0 means no cap. Subsampling
	// always keeps the source optimum.
	MaxSourceSamples int
	Q                int // latent processes (default: LCM heuristic)
	LCMMaxIter       int
	Acquisition      core.Acquisition

	sub *CappedSources // drawn on first use
}

// NewMultitaskTS returns the Multitask(TS) proposer with a sample cap
// suited to interactive runs.
func NewMultitaskTS(sources []*Source) *MultitaskTS {
	return &MultitaskTS{Sources: sources, MaxSourceSamples: 60}
}

// Name implements core.Proposer.
func (m *MultitaskTS) Name() string { return "Multitask(TS)" }

// Propose implements core.Proposer.
func (m *MultitaskTS) Propose(ctx *core.ProposeContext) ([]float64, error) {
	if len(m.Sources) == 0 {
		return nil, ErrNoSources
	}
	X, Y, info := ctx.History.RobustXY(core.RobustOptions{})
	ctx.NoteRobustIngestion(info)
	if len(X) == 0 {
		return equalWeightFirstEval(ctx, m.Sources, m.Kernel)
	}
	if m.sub == nil {
		m.sub = CapSources(m.Sources, m.MaxSourceSamples, ctx.Rng)
	}
	nTasks := len(m.Sources) + 1
	tasksX := make([][][]float64, nTasks)
	tasksY := make([][]float64, nTasks)
	for i, s := range m.sub.Views {
		tasksX[i] = s.X
		tasksY[i] = s.Y
	}
	tasksX[nTasks-1] = X
	tasksY[nTasks-1] = Y
	model, err := lcmFit(tasksX, tasksY, lcm.Options{
		Q:           m.Q,
		Kernel:      m.Kernel,
		Categorical: ctx.Problem.CategoricalMask(),
		MaxIter:     m.LCMMaxIter,
		Seed:        ctx.Rng.Int63(),
	})
	if err != nil {
		return ctx.DegradeToSpaceFill(m.Name(), err), nil
	}
	acq := m.Acquisition
	if acq == nil {
		acq = core.EI{}
	}
	surr := lcmSlice{m: model, task: nTasks - 1}
	return core.SearchNext(surr, ctx.Problem.ParamSpace, acq, ctx.History, ctx.Rng, ctx.Search), nil
}

// StateCheckpoint implements core.StatefulProposer: the source
// subsample is drawn from the session RNG once, not per proposal.
func (m *MultitaskTS) StateCheckpoint() ([]byte, error) { return json.Marshal(m.sub) }

// RestoreState implements core.StatefulProposer.
func (m *MultitaskTS) RestoreState(data []byte) (err error) {
	m.sub, err = RestoreCappedSources(m.Sources, data)
	return err
}

// MultitaskPS is the 2021-GPTune multitask proposer (Section V-A-1):
// the source tasks contribute *pseudo samples* drawn from their
// pre-trained black-box surrogate models rather than raw data. Each
// iteration the LCM proposes a point for every task; source proposals
// are "evaluated" by the source surrogate mean and appended as pseudo
// samples, while the target proposal is evaluated for real.
type MultitaskPS struct {
	Sources []*Source
	Kernel  kernel.Type
	// InitPseudo is the number of pseudo samples seeded per source
	// before the first LCM fit (default max(4, dim+2)).
	InitPseudo  int
	Q           int
	LCMMaxIter  int
	Acquisition core.Acquisition

	pseudoX [][][]float64
	pseudoY [][]float64
}

// NewMultitaskPS returns the Multitask(PS) proposer.
func NewMultitaskPS(sources []*Source) *MultitaskPS {
	return &MultitaskPS{Sources: sources}
}

// Name implements core.Proposer.
func (m *MultitaskPS) Name() string { return "Multitask(PS)" }

// Propose implements core.Proposer.
func (m *MultitaskPS) Propose(ctx *core.ProposeContext) ([]float64, error) {
	if len(m.Sources) == 0 {
		return nil, ErrNoSources
	}
	X, Y, info := ctx.History.RobustXY(core.RobustOptions{})
	ctx.NoteRobustIngestion(info)
	if len(X) == 0 {
		return equalWeightFirstEval(ctx, m.Sources, m.Kernel)
	}
	mask := ctx.Problem.CategoricalMask()
	models, err := sourceModels(m.Sources, mask, m.Kernel, 1)
	if err != nil {
		return nil, err
	}
	dim := ctx.Problem.ParamSpace.Dim()
	if m.pseudoX == nil {
		m.seedPseudo(dim, models, ctx.Rng)
	}
	nTasks := len(m.Sources) + 1
	tasksX := make([][][]float64, nTasks)
	tasksY := make([][]float64, nTasks)
	for i := range m.Sources {
		tasksX[i] = m.pseudoX[i]
		tasksY[i] = m.pseudoY[i]
	}
	tasksX[nTasks-1] = X
	tasksY[nTasks-1] = Y
	model, err := lcmFit(tasksX, tasksY, lcm.Options{
		Q:           m.Q,
		Kernel:      m.Kernel,
		Categorical: mask,
		MaxIter:     m.LCMMaxIter,
		Seed:        ctx.Rng.Int63(),
	})
	if err != nil {
		return ctx.DegradeToSpaceFill(m.Name(), err), nil
	}
	acq := m.Acquisition
	if acq == nil {
		acq = core.EI{}
	}
	// Advance each source with one new pseudo sample proposed by the
	// joint model and answered by the source's black-box surrogate mean.
	for i, srcModel := range models {
		hist := pseudoHistory(m.pseudoX[i], m.pseudoY[i])
		u := core.SearchNext(lcmSlice{m: model, task: i}, ctx.Problem.ParamSpace, acq, hist, ctx.Rng, ctx.Search)
		m.pseudoX[i] = append(m.pseudoX[i], u)
		m.pseudoY[i] = append(m.pseudoY[i], srcModel.PredictMean(u))
	}
	surr := lcmSlice{m: model, task: nTasks - 1}
	return core.SearchNext(surr, ctx.Problem.ParamSpace, acq, ctx.History, ctx.Rng, ctx.Search), nil
}

// pseudoState is MultitaskPS's checkpoint payload: the pseudo samples
// accumulate across proposals and are not derivable from the history.
type pseudoState struct {
	X [][][]float64 `json:"x"`
	Y [][]float64   `json:"y"`
}

// StateCheckpoint implements core.StatefulProposer.
func (m *MultitaskPS) StateCheckpoint() ([]byte, error) {
	return json.Marshal(pseudoState{X: m.pseudoX, Y: m.pseudoY})
}

// RestoreState implements core.StatefulProposer.
func (m *MultitaskPS) RestoreState(data []byte) error {
	var st pseudoState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("tla: Multitask(PS) state: %w", err)
	}
	if st.X != nil && (len(st.X) != len(m.Sources) || len(st.Y) != len(m.Sources)) {
		return fmt.Errorf("tla: Multitask(PS) state has pseudo samples for %d/%d sources, want %d", len(st.X), len(st.Y), len(m.Sources))
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
// hypercube answered by each source surrogate's mean.
func (m *MultitaskPS) seedPseudo(dim int, models []*gp.GP, rng *rand.Rand) {
	nInit := m.InitPseudo
	if nInit <= 0 {
		nInit = dim + 2
		if nInit < 4 {
			nInit = 4
		}
	}
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
