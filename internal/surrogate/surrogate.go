// Package surrogate is the cheap-transfer algorithm pool behind the
// unified core.Surrogate API: adapters that give the exact GP, the LCM
// multitask model, the Gaussian-copula transfer model and the sparse
// inducing-point GP a common Fit/Observe/Predict lifecycle, plus the
// bandit-selected Pool proposer and the single-model Fixed proposer
// that plug the pool into tuning sessions.
//
// Every adapter's Cost method returns a deterministic estimate (a pure
// function of the sample count) — never a wall-clock measurement — so
// that arm selection, and therefore every proposal, stays a
// deterministic function of the history and the session RNG. Observed
// fit durations feed only metrics and benchmarks.
package surrogate

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"gptunecrowd/internal/copula"
	"gptunecrowd/internal/core"
	"gptunecrowd/internal/gp"
	"gptunecrowd/internal/kernel"
	"gptunecrowd/internal/lcm"
	"gptunecrowd/internal/sgp"
	"gptunecrowd/internal/tla"
)

// Surrogate kind names, as accepted by TuneOptions.Surrogate and the
// /api/v1/suggest "surrogate" field.
const (
	KindAuto   = "auto"
	KindGP     = "gp"
	KindLCM    = "lcm"
	KindCopula = "copula"
	KindSGP    = "sgp"
)

// Kinds lists the accepted surrogate kind names.
func Kinds() []string { return []string{KindAuto, KindGP, KindLCM, KindCopula, KindSGP} }

// ValidKind reports whether s names a surrogate kind ("" counts as
// auto).
func ValidKind(s string) bool {
	switch s {
	case "", KindAuto, KindGP, KindLCM, KindCopula, KindSGP:
		return true
	}
	return false
}

// Config carries everything needed to build any surrogate kind for one
// problem.
type Config struct {
	Dim         int
	Kernel      kernel.Type
	Categorical []bool
	// Sources are the related-task histories feeding the transfer
	// arms (LCM, copula). May be empty.
	Sources []*tla.Source
	// MaxSourceSamples caps per-source samples for the LCM arm
	// (default 60, matching Multitask(TS); cubic cost in the total).
	MaxSourceSamples int
	Workers          int
}

func (c *Config) defaults() {
	if c.MaxSourceSamples <= 0 {
		c.MaxSourceSamples = 60
	}
}

// stateful is implemented by surrogates with private state that is not
// a function of the history and the RNG stream; the proposers nest it
// in their own core.StatefulProposer checkpoints.
type stateful interface {
	StateCheckpoint() ([]byte, error)
	RestoreState(data []byte) error
}

// seedSetter is implemented by surrogates whose Fit consumes
// randomness; the proposers reseed them from the session RNG before
// every fit so runs stay reproducible.
type seedSetter interface{ SetSeed(seed int64) }

// New builds an unfitted surrogate of the given kind ("auto" is not a
// kind here — the Pool proposer owns auto-selection).
func New(kind string, cfg Config) (core.Surrogate, error) {
	cfg.defaults()
	switch kind {
	case KindGP:
		return &GPSurrogate{cfg: cfg}, nil
	case KindLCM:
		if len(cfg.Sources) == 0 {
			return nil, fmt.Errorf("surrogate: kind %q requires source tasks", kind)
		}
		return &LCMSurrogate{cfg: cfg}, nil
	case KindCopula:
		return copula.New(cfg.Dim, copulaSources(cfg.Sources), copula.Options{}), nil
	case KindSGP:
		return &SGPSurrogate{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("surrogate: unknown kind %q (want one of %v)", kind, Kinds())
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
		Workers:     g.cfg.Workers,
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

// LCMSurrogate adapts the multitask LCM to core.Surrogate: sources
// plus the target history form the task stack, and predictions come
// from the target slice. Observe refits from scratch — the LCM has no
// cheap update — so prefer Fit-per-round drivers for this arm.
type LCMSurrogate struct {
	cfg   Config
	seed  int64
	sub   *tla.CappedSources
	model *lcm.Model
	tx    [][]float64
	ty    []float64
}

// SetSeed reseeds the next Fit.
func (l *LCMSurrogate) SetSeed(seed int64) { l.seed = seed }

// Name implements core.Surrogate.
func (l *LCMSurrogate) Name() string { return KindLCM }

// Cost estimates the O((Σnᵢ)³) stacked fit deterministically, using
// the capped per-source counts actually fed to the LCM.
func (l *LCMSurrogate) Cost(n int) float64 {
	total := n
	for _, s := range l.cfg.Sources {
		c := s.Len()
		if c > l.cfg.MaxSourceSamples {
			c = l.cfg.MaxSourceSamples
		}
		total += c
	}
	ft := float64(total)
	return 3e-9 * ft * ft * ft
}

// Fit implements core.Surrogate.
func (l *LCMSurrogate) Fit(X [][]float64, Y []float64) error {
	if len(l.cfg.Sources) == 0 {
		return fmt.Errorf("surrogate: lcm requires source tasks")
	}
	if l.sub == nil {
		// Deterministic subsample: seeded from the first fit's seed and
		// cached, so later refits see the same source rows.
		l.sub = tla.CapSources(l.cfg.Sources, l.cfg.MaxSourceSamples, rand.New(rand.NewSource(l.seed)))
	}
	nTasks := len(l.cfg.Sources) + 1
	tasksX := make([][][]float64, nTasks)
	tasksY := make([][]float64, nTasks)
	for i, s := range l.sub.Views {
		tasksX[i] = s.X
		tasksY[i] = s.Y
	}
	tasksX[nTasks-1] = X
	tasksY[nTasks-1] = Y
	m, err := lcm.Fit(tasksX, tasksY, lcm.Options{
		Kernel:      l.cfg.Kernel,
		Categorical: l.cfg.Categorical,
		Seed:        l.seed,
		Workers:     l.cfg.Workers,
	})
	if err != nil {
		return err
	}
	l.model = m
	l.tx = X
	l.ty = Y
	return nil
}

// StateCheckpoint serializes the source subsample: it depends on which
// fit came first in the run, so a resumed run cannot redraw it.
func (l *LCMSurrogate) StateCheckpoint() ([]byte, error) { return json.Marshal(l.sub) }

// RestoreState restores a subsample serialized by StateCheckpoint.
func (l *LCMSurrogate) RestoreState(data []byte) (err error) {
	l.sub, err = tla.RestoreCappedSources(l.cfg.Sources, data)
	return err
}

// Observe appends the evaluation to the target task and refits.
func (l *LCMSurrogate) Observe(x []float64, y float64) error {
	if l.model == nil {
		return fmt.Errorf("surrogate: lcm Observe before Fit")
	}
	tx := append(append([][]float64(nil), l.tx...), append([]float64(nil), x...))
	ty := append(append([]float64(nil), l.ty...), y)
	return l.Fit(tx, ty)
}

// Predict implements core.Surrogate. Prediction errors answer +Inf
// mean so acquisition search skips the point instead of crashing.
func (l *LCMSurrogate) Predict(x []float64) (float64, float64) {
	if l.model == nil {
		return 0, 1
	}
	mean, std, err := l.model.Predict(len(l.cfg.Sources), x)
	if err != nil {
		return math.Inf(1), 0
	}
	return mean, std
}

// PredictBatchInto implements core.Surrogate.
func (l *LCMSurrogate) PredictBatchInto(X [][]float64, means, stds []float64, workers int) {
	for i, x := range X {
		means[i], stds[i] = l.Predict(x)
	}
}

// SGPSurrogate adapts the sparse inducing-point GP to core.Surrogate.
type SGPSurrogate struct {
	cfg Config
	// MaxInducing caps the inducing set (0 = sgp default 128).
	MaxInducing int
	seed        int64
	model       *sgp.SGP
}

// SetSeed reseeds the next Fit.
func (s *SGPSurrogate) SetSeed(seed int64) { s.seed = seed }

// Name implements core.Surrogate.
func (s *SGPSurrogate) Name() string { return KindSGP }

// Cost estimates the O(n·m²) sparse fit plus the capped-subsample
// hyperparameter fit deterministically.
func (s *SGPSurrogate) Cost(n int) float64 {
	m := float64(s.MaxInducing)
	if m <= 0 {
		m = 128
	}
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
		MaxInducing:    s.MaxInducing,
		HyperSubsample: 128,
		Restarts:       1,
		MaxIter:        40,
		Kernel:         s.cfg.Kernel,
		Categorical:    s.cfg.Categorical,
		Seed:           s.seed,
		Workers:        s.cfg.Workers,
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
	_ core.Surrogate = (*LCMSurrogate)(nil)
	_ core.Surrogate = (*SGPSurrogate)(nil)
	_ core.Surrogate = (*copula.Model)(nil)
)
