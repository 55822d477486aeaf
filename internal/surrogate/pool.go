package surrogate

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"gptunecrowd/internal/core"
	"gptunecrowd/internal/obs"
)

// PoolConfig configures the bandit-selected surrogate pool.
type PoolConfig struct {
	Config
	// MinSamples is the number of successful evaluations required
	// before any model-based arm runs (default 3; space-filling below
	// it).
	MinSamples int
	// Selector tunes the cost-penalized UCB rule.
	Selector SelectorOptions
	// Metrics, when non-nil, receives the surrogate_* families
	// (selections, fit durations, fit failures, mean rewards per arm).
	Metrics *obs.Registry
}

// armSpace is the name of the model-free space-filling arm.
const armSpace = "space"

// Pool is the budget-aware auto-selecting proposer: each iteration a
// cost-penalized UCB bandit picks one arm from {gp, lcm, copula, sgp,
// space-filling}, rewards arms by the (normalized) incumbent
// improvement their proposals achieved, and penalizes them by their
// deterministic fit-cost estimate at the current history size. The
// LCM arm joins only when source tasks exist.
//
// Selection state round-trips through the core.StatefulProposer
// checkpoint hooks, so a resumed session replays bit-identically.
type Pool struct {
	cfg PoolConfig

	sel      *Selector
	arms     []core.Surrogate // nil entry = space-filling arm
	names    []string
	lastArm  int
	prevBest float64 // incumbent at the previous proposal (NaN = none)

	pending *poolState // RestoreState before lazy build

	selected    []*obs.Counter
	fitSeconds  []*obs.Histogram
	fitFailures []*obs.Counter
}

// NewPool returns the auto-selecting pool proposer.
func NewPool(cfg PoolConfig) *Pool {
	cfg.Config.defaults()
	if cfg.MinSamples < 3 {
		cfg.MinSamples = 3
	}
	return &Pool{cfg: cfg, lastArm: -1, prevBest: math.NaN()}
}

// Name implements core.Proposer.
func (p *Pool) Name() string { return "Surrogate(auto)" }

// ArmNames lists the pool's arms in selection-index order (built
// lazily at the first Propose; empty before that unless dim was known
// at construction).
func (p *Pool) ArmNames() []string { return p.names }

// SelectedCounts reports how often each arm has been pulled, keyed by
// arm name.
func (p *Pool) SelectedCounts() map[string]int {
	out := make(map[string]int, len(p.names))
	for i, n := range p.names {
		if p.sel != nil {
			out[n] = p.sel.Pulls(i)
		}
	}
	return out
}

func (p *Pool) ensureBuilt(dim int, categorical []bool) error {
	if p.sel != nil {
		return nil
	}
	cfg := p.cfg.Config
	cfg.Dim = dim
	cfg.Categorical = categorical
	kinds := []string{KindGP}
	if len(cfg.Sources) > 0 {
		kinds = append(kinds, KindLCM)
	}
	kinds = append(kinds, KindCopula, KindSGP, armSpace)

	var arms []Arm
	for _, k := range kinds {
		if k == armSpace {
			p.arms = append(p.arms, nil)
			p.names = append(p.names, armSpace)
			arms = append(arms, Arm{Name: armSpace, Cost: func(int) float64 { return 0 }})
			continue
		}
		s, err := New(k, cfg)
		if err != nil {
			return err
		}
		p.arms = append(p.arms, s)
		p.names = append(p.names, k)
		arms = append(arms, Arm{Name: s.Name(), Cost: s.Cost})
	}
	p.sel = NewSelector(arms, p.cfg.Selector)
	if err := p.applyPending(); err != nil {
		return err
	}
	if reg := p.cfg.Metrics; reg != nil {
		for _, name := range p.names {
			lbl := obs.L("arm", name)
			p.selected = append(p.selected, reg.Counter("surrogate_selected_total",
				"Arm selections by the surrogate pool bandit.", lbl))
			p.fitSeconds = append(p.fitSeconds, reg.Histogram("surrogate_fit_seconds",
				"Observed surrogate fit durations (metrics only; selection uses deterministic cost estimates).", nil, lbl))
			p.fitFailures = append(p.fitFailures, reg.Counter("surrogate_fit_failures_total",
				"Surrogate fits that failed and degraded to space-filling.", lbl))
		}
		for i, name := range p.names {
			i := i
			reg.GaugeFunc("surrogate_arm_mean_reward",
				"Average normalized incumbent improvement credited to the arm.",
				func() float64 { return p.sel.MeanReward(i) }, obs.L("arm", name))
		}
	}
	return nil
}

// settleReward credits the previous pull with the incumbent
// improvement its proposal achieved, normalized by the history's
// objective spread into [0, 1].
func (p *Pool) settleReward(ctx *core.ProposeContext, Y []float64) {
	best, ok := ctx.History.Best()
	if p.lastArm >= 0 && ok && !math.IsNaN(p.prevBest) {
		imp := p.prevBest - best.Y
		reward := 0.0
		if imp > 0 {
			spread := objectiveSpread(Y)
			if spread > 0 {
				reward = math.Min(1, imp/spread)
			} else {
				reward = 1
			}
		}
		p.sel.Reward(p.lastArm, reward)
	}
	if ok {
		p.prevBest = best.Y
	}
}

func objectiveSpread(Y []float64) float64 {
	if len(Y) == 0 {
		return 0
	}
	lo, hi := Y[0], Y[0]
	for _, y := range Y {
		if y < lo {
			lo = y
		}
		if y > hi {
			hi = y
		}
	}
	return hi - lo
}

// Propose implements core.Proposer.
func (p *Pool) Propose(ctx *core.ProposeContext) ([]float64, error) {
	if err := ctx.Cancelled(); err != nil {
		return nil, err
	}
	if err := p.ensureBuilt(ctx.Problem.ParamSpace.Dim(), ctx.Problem.CategoricalMask()); err != nil {
		return nil, err
	}
	X, Y, info := ctx.History.RobustXY(core.RobustOptions{})
	ctx.NoteRobustIngestion(info)
	p.settleReward(ctx, Y)
	if len(X) < p.cfg.MinSamples {
		p.lastArm = -1 // warmup draws are nobody's credit
		return ctx.RandomFeasible(), nil
	}
	frac := 1.0
	if ctx.Budget > 0 {
		frac = float64(ctx.Budget-ctx.Iter) / float64(ctx.Budget)
	}
	arm := p.sel.Select(len(X), frac)
	p.lastArm = arm
	if p.selected != nil {
		p.selected[arm].Inc()
	}
	surr := p.arms[arm]
	if surr == nil { // space-filling arm
		if ctx.Stats != nil {
			ctx.Stats.SpaceFill++
		}
		return ctx.RandomFeasible(), nil
	}
	return proposeWith(ctx, surr, func(d time.Duration) {
		if p.fitSeconds != nil {
			p.fitSeconds[arm].Observe(d.Seconds())
		}
	}, func() {
		if p.fitFailures != nil {
			p.fitFailures[arm].Inc()
		}
	}, p.Name())
}

// proposeWith runs the shared fit → acquisition-search step of the
// Fixed and Pool proposers.
func proposeWith(ctx *core.ProposeContext, surr core.Surrogate, onFit func(time.Duration), onFail func(), label string) ([]float64, error) {
	if s, ok := surr.(seedSetter); ok {
		s.SetSeed(ctx.Rng.Int63())
	}
	X, Y, _ := ctx.History.RobustXY(core.RobustOptions{})
	fitStart := time.Now()
	err := surr.Fit(X, Y)
	d := time.Since(fitStart)
	ctx.Timers.ObserveFit(d)
	if onFit != nil {
		onFit(d)
	}
	if cerr := ctx.Cancelled(); cerr != nil {
		return nil, cerr
	}
	if err != nil {
		if onFail != nil {
			onFail()
		}
		return ctx.DegradeToSpaceFill(label, err), nil
	}
	searchStart := time.Now()
	u := core.SearchNext(surr, ctx.Problem.ParamSpace, core.EI{}, ctx.History, ctx.Rng, ctx.Search)
	ctx.Timers.ObserveSearch(time.Since(searchStart))
	return u, nil
}

// poolState is the Pool's checkpoint payload. Arms holds the private
// state of the stateful arms (the LCM's source subsample) by arm name.
type poolState struct {
	Selector json.RawMessage            `json:"selector,omitempty"`
	LastArm  int                        `json:"last_arm"`
	PrevBest *float64                   `json:"prev_best,omitempty"`
	Arms     map[string]json.RawMessage `json:"arms,omitempty"`
}

// StateCheckpoint implements core.StatefulProposer.
func (p *Pool) StateCheckpoint() ([]byte, error) {
	st := poolState{LastArm: p.lastArm}
	if !math.IsNaN(p.prevBest) {
		v := p.prevBest
		st.PrevBest = &v
	}
	if p.sel == nil {
		if p.pending != nil {
			st.Selector, st.Arms = p.pending.Selector, p.pending.Arms
		}
		return json.Marshal(st)
	}
	snap, err := p.sel.Snapshot()
	if err != nil {
		return nil, err
	}
	st.Selector = snap
	for i, arm := range p.arms {
		if sa, ok := arm.(stateful); ok {
			raw, err := sa.StateCheckpoint()
			if err != nil {
				return nil, fmt.Errorf("surrogate: arm %s state: %w", p.names[i], err)
			}
			if st.Arms == nil {
				st.Arms = map[string]json.RawMessage{}
			}
			st.Arms[p.names[i]] = raw
		}
	}
	return json.Marshal(st)
}

// RestoreState implements core.StatefulProposer. The selector and arm
// portions are applied lazily if the arm set has not been built yet.
func (p *Pool) RestoreState(data []byte) error {
	var st poolState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("surrogate: pool state: %w", err)
	}
	p.lastArm = st.LastArm
	p.prevBest = math.NaN()
	if st.PrevBest != nil {
		p.prevBest = *st.PrevBest
	}
	p.pending = &st
	if p.sel != nil {
		return p.applyPending()
	}
	return nil
}

// applyPending hands a restored checkpoint's selector and arm state to
// the built arm set.
func (p *Pool) applyPending() error {
	st := p.pending
	p.pending = nil
	if st == nil {
		return nil
	}
	if len(st.Selector) > 0 {
		if err := p.sel.Restore(st.Selector); err != nil {
			return err
		}
	}
	for i, arm := range p.arms {
		if raw, ok := st.Arms[p.names[i]]; ok {
			if sa, ok := arm.(stateful); ok {
				if err := sa.RestoreState(raw); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Fixed is the single-model proposer behind TuneOptions.Surrogate
// values other than "auto": every iteration refits one surrogate kind
// and maximizes EI over it, with the same warmup and degradation
// behavior as the pool.
type Fixed struct {
	cfg     PoolConfig
	kind    string
	surr    core.Surrogate
	pending []byte // RestoreState before lazy build
}

// NewFixed returns a proposer that always uses the given surrogate
// kind.
func NewFixed(kind string, cfg PoolConfig) (*Fixed, error) {
	cfg.Config.defaults()
	if cfg.MinSamples < 3 {
		cfg.MinSamples = 3
	}
	switch kind {
	case KindGP, KindLCM, KindCopula, KindSGP:
		return &Fixed{cfg: cfg, kind: kind}, nil
	}
	return nil, fmt.Errorf("surrogate: unknown fixed kind %q", kind)
}

// Name implements core.Proposer.
func (f *Fixed) Name() string { return "Surrogate(" + f.kind + ")" }

// Propose implements core.Proposer.
func (f *Fixed) Propose(ctx *core.ProposeContext) ([]float64, error) {
	if err := ctx.Cancelled(); err != nil {
		return nil, err
	}
	if f.surr == nil {
		cfg := f.cfg.Config
		cfg.Dim = ctx.Problem.ParamSpace.Dim()
		cfg.Categorical = ctx.Problem.CategoricalMask()
		s, err := New(f.kind, cfg)
		if err != nil {
			return nil, err
		}
		if sa, ok := s.(stateful); ok && f.pending != nil {
			if err := sa.RestoreState(f.pending); err != nil {
				return nil, err
			}
		}
		f.surr, f.pending = s, nil
	}
	X, _, info := ctx.History.RobustXY(core.RobustOptions{})
	ctx.NoteRobustIngestion(info)
	if len(X) < f.cfg.MinSamples {
		return ctx.RandomFeasible(), nil
	}
	return proposeWith(ctx, f.surr, nil, nil, f.Name())
}

// StateCheckpoint implements core.StatefulProposer with the state of
// the surrogate, when its kind has any.
func (f *Fixed) StateCheckpoint() ([]byte, error) {
	if sa, ok := f.surr.(stateful); ok {
		return sa.StateCheckpoint()
	}
	return f.pending, nil
}

// RestoreState implements core.StatefulProposer; the state is applied
// when the next Propose (re)builds the surrogate, which refits from the
// history on every proposal anyway.
func (f *Fixed) RestoreState(data []byte) error {
	f.surr, f.pending = nil, append([]byte(nil), data...)
	return nil
}

// NewProposer builds the proposer for a TuneOptions.Surrogate value:
// "auto" (or "") gives the bandit pool, any other valid kind the Fixed
// single-model proposer.
func NewProposer(kind string, cfg PoolConfig) (core.Proposer, error) {
	switch kind {
	case "", KindAuto:
		return NewPool(cfg), nil
	default:
		return NewFixed(kind, cfg)
	}
}

var (
	_ core.Proposer         = (*Pool)(nil)
	_ core.StatefulProposer = (*Pool)(nil)
	_ core.StatefulProposer = (*Fixed)(nil)
)
