// Package surrogate owns the two decisions of a model-based tuner:
// which model proposes this evaluation, and how one propose step runs.
// New builds any model family behind core.Surrogate (adapters for the
// exact GP and the sparse GP, the Gaussian copula, the Table I models
// of internal/tla), Pool is the one propose step over a row's arms,
// Selector the rule that picks an arm, and NewProposer the table from
// tuner name to (policy, arms, warm-up).
//
// Every model's Cost method returns a deterministic estimate (a pure
// function of the sample count) — never a wall-clock measurement — so
// that arm selection, and therefore every proposal, stays a
// deterministic function of the history and the session RNG. Observed
// fit durations feed only metrics and benchmarks.
package surrogate

import (
	"fmt"
	"slices"

	"gptunecrowd/internal/copula"
	"gptunecrowd/internal/core"
	"gptunecrowd/internal/gp"
	"gptunecrowd/internal/kernel"
	"gptunecrowd/internal/sgp"
	"gptunecrowd/internal/space"
	"gptunecrowd/internal/tla"
)

// Surrogate kind names, as accepted by TuneOptions.Surrogate and the
// /api/v1/suggest "surrogate" field. KindAuto names a tuner (a row of
// the NewProposer table), not a model.
const (
	KindAuto   = "auto"
	KindGP     = "gp"
	KindLCM    = "lcm"
	KindCopula = "copula"
	KindSGP    = "sgp"
)

// Model kinds of the paper's Table I, under their Table I names (the
// model of Multitask(TS) is KindLCM). They exist only over source
// tasks.
const (
	KindMultitaskPS        = "Multitask(PS)"
	KindWeightedSumEqual   = "WeightedSum(equal)"
	KindWeightedSumDynamic = "WeightedSum(dynamic)"
	KindStacking           = "Stacking"
)

// Config carries everything needed to build any surrogate kind for one
// problem.
type Config struct {
	Dim         int
	Kernel      kernel.Type
	Categorical []bool
	// Sources are the related-task histories feeding the transfer
	// models (everything but gp and sgp). May be empty for the copula.
	Sources []*tla.Source
	// MaxSourceSamples caps per-source samples for the LCM (default 60;
	// cubic cost in the total). Subsampling keeps the source optimum.
	MaxSourceSamples int
}

func (c *Config) defaults() {
	if c.MaxSourceSamples <= 0 {
		c.MaxSourceSamples = 60
	}
}

// stateful is implemented by surrogates with private state that is not
// a function of the history and the RNG stream; the Pool nests it in
// its core.StatefulProposer checkpoint.
type stateful interface {
	StateCheckpoint() ([]byte, error)
	RestoreState(data []byte) error
}

// seedSetter is implemented by surrogates whose Fit consumes
// randomness; the Pool reseeds them from the session RNG before every
// fit so runs stay reproducible.
type seedSetter interface{ SetSeed(seed int64) }

// searchBinder is implemented by a model whose Fit itself searches the
// parameter space — Multitask(PS) asks the joint model for one pseudo
// sample per source — and so needs what core.SearchNext needs.
type searchBinder interface {
	BindSearch(sp *space.Space, opts core.SearchOptions)
}

// modelKinds lists what New builds.
var modelKinds = []string{KindGP, KindLCM, KindCopula, KindSGP,
	KindMultitaskPS, KindWeightedSumEqual, KindWeightedSumDynamic, KindStacking}

// New builds an unfitted surrogate of the given kind. Kinds that exist
// only over source tasks fail with an error wrapping tla.ErrNoSources
// when cfg has none.
func New(kind string, cfg Config) (core.Surrogate, error) {
	cfg.defaults()
	switch kind {
	case KindGP:
		return &GPSurrogate{cfg: cfg}, nil
	case KindCopula:
		return copula.New(cfg.Dim, copulaSources(cfg.Sources), copula.Options{}), nil
	case KindSGP:
		return &SGPSurrogate{cfg: cfg}, nil
	}
	if !slices.Contains(modelKinds, kind) {
		return nil, fmt.Errorf("surrogate: unknown kind %q (want one of %v)", kind, modelKinds)
	}
	if len(cfg.Sources) == 0 {
		return nil, fmt.Errorf("surrogate: kind %q: %w", kind, tla.ErrNoSources)
	}
	switch kind {
	case KindLCM:
		return tla.NewTrueSampleLCM(cfg.Sources, cfg.MaxSourceSamples, cfg.Categorical), nil
	case KindMultitaskPS:
		return tla.NewMultitaskPS(cfg.Sources, cfg.Categorical), nil
	case KindStacking:
		return tla.NewStacking(cfg.Sources, cfg.Categorical), nil
	}
	return tla.NewWeightedSum(cfg.Sources, kind == KindWeightedSumDynamic, cfg.Categorical), nil
}

func copulaSources(srcs []*tla.Source) []copula.Source {
	out := make([]copula.Source, len(srcs))
	for i, s := range srcs {
		out[i] = copula.Source{Name: s.Name, X: s.X, Y: s.Y}
	}
	return out
}

// GPSurrogate adapts the exact GP (internal/gp) to core.Surrogate.
type GPSurrogate struct {
	cfg   Config
	seed  int64
	model *gp.GP
}

// SetSeed reseeds the next Fit.
func (g *GPSurrogate) SetSeed(seed int64) { g.seed = seed }

// Name implements core.Surrogate.
func (g *GPSurrogate) Name() string { return KindGP }

// Cost estimates the O(n³) exact fit deterministically.
func (g *GPSurrogate) Cost(n int) float64 {
	fn := float64(n)
	return 1e-9*fn*fn*fn + 1e-6*fn*fn
}

// Fit implements core.Surrogate.
func (g *GPSurrogate) Fit(X [][]float64, Y []float64) error {
	m, err := gp.Fit(X, Y, gp.Options{
		Kernel:      g.cfg.Kernel,
		Categorical: g.cfg.Categorical,
		Seed:        g.seed,
	})
	if err != nil {
		return err
	}
	g.model = m
	return nil
}

// Observe folds one evaluation into the fitted model (rank-1 update).
func (g *GPSurrogate) Observe(x []float64, y float64) error {
	if g.model == nil {
		return fmt.Errorf("surrogate: gp Observe before Fit")
	}
	return g.model.Observe(x, y)
}

// Clone returns an independent copy of the fitted model (O(n²)): Observe
// on the copy leaves the original, and searches running on it, untouched.
func (g *GPSurrogate) Clone() core.Surrogate {
	c := *g
	if g.model != nil {
		c.model = g.model.Clone()
	}
	return &c
}

// Predict implements core.Surrogate.
func (g *GPSurrogate) Predict(x []float64) (float64, float64) {
	if g.model == nil {
		return 0, 1
	}
	return g.model.Predict(x)
}

// PredictBatchInto implements core.Surrogate.
func (g *GPSurrogate) PredictBatchInto(X [][]float64, means, stds []float64, workers int) {
	if g.model == nil {
		for i := range X {
			means[i], stds[i] = 0, 1
		}
		return
	}
	g.model.PredictBatchInto(X, means, stds, workers)
}

// SGPSurrogate adapts the sparse inducing-point GP to core.Surrogate.
type SGPSurrogate struct {
	cfg   Config
	seed  int64
	model *sgp.SGP
}

// SetSeed reseeds the next Fit.
func (s *SGPSurrogate) SetSeed(seed int64) { s.seed = seed }

// Name implements core.Surrogate.
func (s *SGPSurrogate) Name() string { return KindSGP }

// Cost estimates the O(n·m²) sparse fit over the sgp default of m = 128
// inducing points plus the capped-subsample hyperparameter fit
// deterministically.
func (s *SGPSurrogate) Cost(n int) float64 {
	const m = 128.0
	sub := float64(n)
	if sub > 256 {
		sub = 256
	}
	return 1e-9*float64(n)*m*m + 1e-9*sub*sub*sub
}

// Fit implements core.Surrogate. The hyperparameter sub-fit runs a
// single short multi-start over a reduced subsample: as the cheap
// crowd-scale arm, the sgp's accuracy comes from the inducing-point
// posterior over all n rows, not from a polished length-scale estimate.
func (s *SGPSurrogate) Fit(X [][]float64, Y []float64) error {
	m, err := sgp.Fit(X, Y, sgp.Options{
		HyperSubsample: 128,
		Restarts:       1,
		MaxIter:        40,
		Kernel:         s.cfg.Kernel,
		Categorical:    s.cfg.Categorical,
		Seed:           s.seed,
	})
	if err != nil {
		return err
	}
	s.model = m
	return nil
}

// Observe folds one evaluation in with a rank-1 update of the
// inducing-point posterior.
func (s *SGPSurrogate) Observe(x []float64, y float64) error {
	if s.model == nil {
		return fmt.Errorf("surrogate: sgp Observe before Fit")
	}
	return s.model.Observe(x, y)
}

// Predict implements core.Surrogate.
func (s *SGPSurrogate) Predict(x []float64) (float64, float64) {
	if s.model == nil {
		return 0, 1
	}
	return s.model.Predict(x)
}

// PredictBatchInto implements core.Surrogate.
func (s *SGPSurrogate) PredictBatchInto(X [][]float64, means, stds []float64, workers int) {
	if s.model == nil {
		for i := range X {
			means[i], stds[i] = 0, 1
		}
		return
	}
	s.model.PredictBatchInto(X, means, stds, workers)
}

var (
	_ core.Surrogate = (*GPSurrogate)(nil)
	_ core.Surrogate = (*SGPSurrogate)(nil)
	_ core.Surrogate = (*copula.Model)(nil)
	_ searchBinder   = (*tla.MultitaskPS)(nil)
	_ stateful       = (*tla.MultitaskPS)(nil)
	_ stateful       = (*tla.TrueSampleLCM)(nil)
)
