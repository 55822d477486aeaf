package surrogate

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"gptunecrowd/internal/core"
	"gptunecrowd/internal/obs"
	"gptunecrowd/internal/tla"
)

// PoolConfig configures a tuner built by NewProposer.
type PoolConfig struct {
	Config
	// Metrics, when non-nil, receives the surrogate_* families
	// (selections, fit durations, fit failures, mean rewards per arm).
	Metrics *obs.Registry
	// Acquisition scores the arm's search (nil means EI); a row's
	// source-mix first evaluation always searches with LCB.
	Acquisition core.Acquisition
}

// armSpace is the name of the model-free space-filling arm.
const armSpace = "space"

// Pool is the propose step of every tuner: a row of the NewProposer
// table — a selection policy over core.Surrogate arms plus a warm-up
// rule — run as
//
//	cancel check → robust ingestion → settle the previous pull's credit
//	→ warm-up → pick an arm → seed → timed Fit → degrade on failure →
//	cancel check → timed acquisition search (EI unless configured).
//
// A row of one arm is a fixed-model tuner (NoTLA's is the exact GP);
// "auto" is a cost-penalized UCB bandit over {gp, lcm, copula, sgp,
// space-filling}; the paper's ensembles pick among {lcm,
// WeightedSum(dynamic), Stacking} by Eqs. 3-4. Arms are credited with
// the (normalized) incumbent improvement and the objective their
// proposals achieved.
//
// Selection state and the private state of stateful arms round-trip
// through the core.StatefulProposer checkpoint hooks, so a resumed
// session replays bit-identically.
type Pool struct {
	cfg  PoolConfig
	row  Row
	name string

	sel   *Selector
	arms  []core.Surrogate // nil entry = space-filling arm
	names []string
	// first answers the first evaluation of a row without a random
	// warm-up: the paper's convention for a target without samples is
	// the equal-weight mix of the source surrogates, searched with LCB.
	first core.Surrogate

	lastArm  int      // arm of the pull awaiting credit (-1 = none)
	lastIter int      // history index that pull's proposal lands at
	prevBest *float64 // incumbent at the previous proposal (nil = none)

	pending *poolState // RestoreState before lazy build

	selected    []*obs.Counter
	fitSeconds  []*obs.Histogram
	fitFailures []*obs.Counter
}

// Name implements core.Proposer with the name Result.Algorithm
// reports: the paper's for its lineup, "Surrogate(kind)" for the rest.
func (p *Pool) Name() string { return p.name }

// SelectedCounts reports how often each arm has been pulled, keyed by
// arm name (arms are built at the first Propose; empty before that).
func (p *Pool) SelectedCounts() map[string]int {
	out := make(map[string]int, len(p.names))
	for i, n := range p.names {
		out[n] = p.sel.Pulls(i)
	}
	return out
}

func (p *Pool) ensureBuilt(ctx *core.ProposeContext) error {
	if p.sel != nil {
		return nil
	}
	cfg := p.cfg.Config
	cfg.Dim = ctx.Problem.ParamSpace.Dim()
	cfg.Categorical = ctx.Problem.CategoricalMask()
	var arms []Arm
	for _, k := range p.row.Arms {
		var s core.Surrogate
		if k != armSpace {
			var err error
			if s, err = New(k, cfg); errors.Is(err, tla.ErrNoSources) && !p.row.SourceFed {
				continue // a source-only arm of a row that runs without sources
			} else if err != nil {
				return err
			}
		}
		p.arms = append(p.arms, s)
		p.names = append(p.names, k)
		arms = append(arms, Arm{Name: k, Cost: func(n int) float64 { return armCost(k, cfg, n) }})
	}
	if p.row.Warmup == 0 {
		var err error
		if p.first, err = New(KindWeightedSumEqual, cfg); err != nil {
			return err
		}
	}
	p.sel = NewSelector(arms, p.row.Policy)
	if err := p.applyPending(); err != nil {
		return err
	}
	if reg := p.cfg.Metrics; reg != nil {
		for i, name := range p.names {
			lbl := obs.L("arm", name)
			p.selected = append(p.selected, reg.Counter("surrogate_selected_total",
				"Arm selections by the surrogate pool.", lbl))
			p.fitSeconds = append(p.fitSeconds, reg.Histogram("surrogate_fit_seconds",
				"Observed surrogate fit durations (metrics only; selection uses deterministic cost estimates).", nil, lbl))
			p.fitFailures = append(p.fitFailures, reg.Counter("surrogate_fit_failures_total",
				"Surrogate fits that failed and degraded to space-filling or a source-only model.", lbl))
			reg.GaugeFunc("surrogate_arm_mean_reward",
				"Average normalized incumbent improvement credited to the arm.",
				func() float64 { return p.sel.MeanReward(i) }, lbl)
		}
	}
	return nil
}

// settleCredit credits the previous pull with the incumbent improvement
// its proposal achieved, normalized by the history's objective spread
// into [0, 1], and with the objective it evaluated to.
func (p *Pool) settleCredit(h *core.History, Y []float64) {
	best, ok := h.Best()
	if p.lastArm >= 0 {
		reward := 0.0
		if ok && p.prevBest != nil && *p.prevBest > best.Y {
			reward = 1
			if spread := slices.Max(Y) - slices.Min(Y); spread > 0 {
				reward = math.Min(1, (*p.prevBest-best.Y)/spread)
			}
		}
		y := math.Inf(1)
		if p.lastIter < h.Len() && !h.Samples[p.lastIter].Failed {
			y = h.Samples[p.lastIter].Y
		}
		p.sel.Credit(p.lastArm, reward, y)
		p.lastArm = -1
	}
	if ok {
		p.prevBest = &best.Y
	}
}

// Propose implements core.Proposer.
func (p *Pool) Propose(ctx *core.ProposeContext) ([]float64, error) {
	if err := ctx.Cancelled(); err != nil {
		return nil, err
	}
	if err := p.ensureBuilt(ctx); err != nil {
		return nil, err
	}
	X, Y, info := ctx.History.RobustXY()
	ctx.NoteRobustIngestion(info)
	p.settleCredit(ctx.History, Y)

	if info.OK < p.row.Warmup { // warm-up draws are nobody's credit
		return ctx.RandomFeasible(), nil
	}
	// Without target rows (a row of no random warm-up) nobody is picked:
	// the source mix answers, exploiting (there is no incumbent for EI).
	arm, surr, acq := -1, p.first, core.Acquisition(core.LCB{Kappa: 1})
	if len(X) > 0 {
		frac := 1.0
		if ctx.Budget > 0 {
			frac = float64(ctx.Budget-ctx.Iter) / float64(ctx.Budget)
		}
		arm = p.sel.Select(Draw{N: len(X), BudgetFrac: frac, Dim: ctx.Problem.ParamSpace.Dim(), Rng: ctx.Rng})
		p.lastArm, p.lastIter = arm, ctx.Iter
		if p.selected != nil {
			p.selected[arm].Inc()
		}
		surr, acq = p.arms[arm], p.cfg.Acquisition
		if acq == nil {
			acq = core.EI{}
		}
		if surr == nil { // space-filling arm
			if ctx.Stats != nil {
				ctx.Stats.SpaceFill++
			}
			return ctx.RandomFeasible(), nil
		}
	}

	if s, ok := surr.(seedSetter); ok {
		s.SetSeed(ctx.Rng.Int63())
	}
	if b, ok := surr.(searchBinder); ok {
		b.BindSearch(ctx.Problem.ParamSpace, ctx.Search)
	}
	fitStart := time.Now()
	err := surr.Fit(X, Y)
	d := time.Since(fitStart)
	ctx.Timers.ObserveFit(d)
	if arm >= 0 && p.fitSeconds != nil {
		p.fitSeconds[arm].Observe(d.Seconds())
	}
	if cerr := ctx.Cancelled(); cerr != nil {
		return nil, cerr
	}
	if err != nil {
		if arm >= 0 && p.fitFailures != nil {
			p.fitFailures[arm].Inc()
		}
		if !errors.Is(err, tla.ErrSourceOnly) {
			return ctx.DegradeToSpaceFill(p.Name(), err), nil
		}
		ctx.NoteFitFailure(p.Name(), "the source-only model", err)
	}
	searchStart := time.Now()
	u := core.SearchNext(surr, ctx.Problem.ParamSpace, acq, ctx.History, ctx.Rng, ctx.Search)
	ctx.Timers.ObserveSearch(time.Since(searchStart))
	return u, nil
}

// poolStateVersion tags the checkpoint payload. The payloads PR 15 and
// earlier wrote (the old pool's, tla.Ensemble's, a bare arm state)
// carry no tag and are refused.
const poolStateVersion = 2

// poolState is the Pool's checkpoint payload. Arms holds the private
// state of the stateful arms (the LCM's source subsample, the pseudo
// samples of Multitask(PS)) by arm name.
type poolState struct {
	V        int                        `json:"v"`
	Selector json.RawMessage            `json:"selector,omitempty"`
	LastArm  int                        `json:"last_arm"`
	LastIter int                        `json:"last_iter,omitempty"`
	PrevBest *float64                   `json:"prev_best,omitempty"`
	Arms     map[string]json.RawMessage `json:"arms,omitempty"`
}

// StateCheckpoint implements core.StatefulProposer.
func (p *Pool) StateCheckpoint() ([]byte, error) {
	st := poolState{V: poolStateVersion, LastArm: p.lastArm, LastIter: p.lastIter, PrevBest: p.prevBest,
		Arms: map[string]json.RawMessage{}}
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
			st.Arms[p.names[i]] = raw
		}
	}
	return json.Marshal(st)
}

// RestoreState implements core.StatefulProposer. Checkpoints arrive
// through the crowd task pool and are untrusted: a payload of another
// format, or one naming an arm outside the row, is an error, never a
// silent reset. The selector and arm portions are applied when the arm
// set is built.
func (p *Pool) RestoreState(data []byte) error {
	var st poolState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("surrogate: %s state: %w", p.Name(), err)
	}
	if st.V != poolStateVersion {
		return fmt.Errorf("surrogate: %s state has format %d, want %d", p.Name(), st.V, poolStateVersion)
	}
	if st.LastArm < -1 || st.LastArm >= len(p.row.Arms) || st.LastIter < 0 {
		return fmt.Errorf("surrogate: %s state credits arm %d at evaluation %d", p.Name(), st.LastArm, st.LastIter)
	}
	for name := range st.Arms {
		if name == armSpace || !slices.Contains(p.row.Arms, name) {
			return fmt.Errorf("surrogate: %s state names arm %q outside %v", p.Name(), name, p.row.Arms)
		}
	}
	p.lastArm, p.lastIter, p.prevBest, p.pending = st.LastArm, st.LastIter, st.PrevBest, &st
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
	if st.LastArm >= len(p.arms) {
		return fmt.Errorf("surrogate: %s state credits arm %d of %d", p.Name(), st.LastArm, len(p.arms))
	}
	for i, arm := range p.arms {
		if raw, ok := st.Arms[p.names[i]]; ok {
			sa, ok := arm.(stateful)
			if !ok {
				return fmt.Errorf("surrogate: %s state carries state for the stateless arm %q", p.Name(), p.names[i])
			}
			if err := sa.RestoreState(raw); err != nil {
				return err
			}
		}
	}
	return nil
}

var _ core.StatefulProposer = (*Pool)(nil)
