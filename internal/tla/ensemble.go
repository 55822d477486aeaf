package tla

import (
	"encoding/json"
	"fmt"
	"math"

	"gptunecrowd/internal/core"
)

// EnsembleMode selects between the proposed ensemble and the two naive
// baselines the paper compares against (Section V-E).
type EnsembleMode int

const (
	// EnsembleProposed is Algorithm 1: PDF selection (Eq. 3) with the
	// dynamic exploration rate of Eq. 4.
	EnsembleProposed EnsembleMode = iota
	// EnsembleToggling cycles through the pool round-robin.
	EnsembleToggling
	// EnsembleProb uses only the PDF, with zero exploration rate.
	EnsembleProb
)

// Ensemble dynamically chooses a TLA algorithm from a pool for each
// target evaluation. The default pool is {Multitask(TS),
// WeightedSum(dynamic), Stacking}, as in the paper.
type Ensemble struct {
	Pool []core.Proposer
	Mode EnsembleMode

	// chosen[i] is the pool index that proposed evaluation i; credited
	// lazily as results appear in the history.
	chosen   []int
	bestOut  []float64 // per-algorithm best observed objective
	credited int
}

// NewEnsemble builds the default pool over the given sources.
func NewEnsemble(sources []*Source, mode EnsembleMode) *Ensemble {
	return &Ensemble{
		Pool: []core.Proposer{
			NewMultitaskTS(sources),
			NewWeightedSumDynamic(sources),
			NewStacking(sources),
		},
		Mode: mode,
	}
}

// Name implements core.Proposer.
func (e *Ensemble) Name() string {
	switch e.Mode {
	case EnsembleToggling:
		return "Ensemble(toggling)"
	case EnsembleProb:
		return "Ensemble(prob)"
	}
	return "Ensemble(proposed)"
}

// credit scans history samples not yet attributed and updates the
// per-algorithm best outputs.
func (e *Ensemble) credit(h *core.History) {
	for ; e.credited < len(h.Samples) && e.credited < len(e.chosen); e.credited++ {
		s := h.Samples[e.credited]
		if s.Failed {
			continue
		}
		alg := e.chosen[e.credited]
		if s.Y < e.bestOut[alg] {
			e.bestOut[alg] = s.Y
		}
	}
}

// explorationRate implements Eq. 4.
func explorationRate(poolSize, nParams, nSamples int) float64 {
	if nSamples <= 0 {
		return 1
	}
	v := float64(poolSize) * float64(nParams) / float64(nSamples)
	return v / (1 + v)
}

// pickAlgorithm implements the selection of Algorithm 1 lines 5–10.
func (e *Ensemble) pickAlgorithm(ctx *core.ProposeContext) int {
	n := len(e.Pool)
	switch e.Mode {
	case EnsembleToggling:
		return ctx.Iter % n
	case EnsembleProb:
		return e.pickByPDF(ctx)
	default:
		rate := explorationRate(n, ctx.Problem.ParamSpace.Dim(), ctx.History.NumOK())
		if ctx.Rng.Float64() < rate {
			return ctx.Rng.Intn(n)
		}
		return e.pickByPDF(ctx)
	}
}

// pickByPDF samples the pool index from Eq. 3: probability proportional
// to 1/best_output. Algorithms without a credited success yet share the
// best observed value (optimistic default); non-positive objectives are
// shifted to keep the PDF well defined.
func (e *Ensemble) pickByPDF(ctx *core.ProposeContext) int {
	n := len(e.Pool)
	vals := make([]float64, n)
	globalBest := math.Inf(1)
	for _, v := range e.bestOut {
		if v < globalBest {
			globalBest = v
		}
	}
	if math.IsInf(globalBest, 1) {
		return ctx.Rng.Intn(n)
	}
	shift := 0.0
	if globalBest <= 0 {
		shift = -globalBest + 1e-9
	}
	var sum float64
	for i, v := range e.bestOut {
		if math.IsInf(v, 1) {
			v = globalBest
		}
		vals[i] = 1 / (v + shift)
		sum += vals[i]
	}
	r := ctx.Rng.Float64() * sum
	for i, v := range vals {
		r -= v
		if r <= 0 {
			return i
		}
	}
	return n - 1
}

// Propose implements core.Proposer: Algorithm 1 of the paper.
func (e *Ensemble) Propose(ctx *core.ProposeContext) ([]float64, error) {
	if len(e.Pool) == 0 {
		return nil, fmt.Errorf("tla: ensemble with empty pool")
	}
	if e.bestOut == nil {
		e.bestOut = make([]float64, len(e.Pool))
		for i := range e.bestOut {
			e.bestOut[i] = math.Inf(1)
		}
	}
	e.credit(ctx.History)
	alg := e.pickAlgorithm(ctx)
	u, err := e.Pool[alg].Propose(ctx)
	if err != nil {
		// A single misbehaving pool member should not end the run; fall
		// back to the next algorithm round-robin.
		for off := 1; off < len(e.Pool); off++ {
			alt := (alg + off) % len(e.Pool)
			if u2, err2 := e.Pool[alt].Propose(ctx); err2 == nil {
				e.chosen = append(e.chosen, alt)
				return u2, nil
			}
		}
		return nil, err
	}
	e.chosen = append(e.chosen, alg)
	return u, nil
}

// ensembleState is the Ensemble's checkpoint payload: the selection
// record Eq. 3 credits, plus the private state of stateful pool members
// (absent for stateless ones). A best output of +Inf — no credited
// success yet — is encoded as null.
type ensembleState struct {
	Chosen   []int             `json:"chosen,omitempty"`
	BestOut  []*float64        `json:"best_out,omitempty"`
	Credited int               `json:"credited,omitempty"`
	Members  []json.RawMessage `json:"members"`
}

// StateCheckpoint implements core.StatefulProposer.
func (e *Ensemble) StateCheckpoint() ([]byte, error) {
	st := ensembleState{Chosen: e.chosen, Credited: e.credited, Members: make([]json.RawMessage, len(e.Pool))}
	for i := range e.bestOut {
		st.BestOut = append(st.BestOut, nil)
		if v := e.bestOut[i]; !math.IsInf(v, 1) {
			st.BestOut[i] = &v
		}
	}
	for i, p := range e.Pool {
		if sp, ok := p.(core.StatefulProposer); ok {
			raw, err := sp.StateCheckpoint()
			if err != nil {
				return nil, fmt.Errorf("tla: ensemble member %s: %w", p.Name(), err)
			}
			st.Members[i] = raw
		}
	}
	return json.Marshal(st)
}

// RestoreState implements core.StatefulProposer.
func (e *Ensemble) RestoreState(data []byte) error {
	var st ensembleState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("tla: ensemble state: %w", err)
	}
	if len(st.Members) != len(e.Pool) || (st.BestOut != nil && len(st.BestOut) != len(e.Pool)) ||
		st.Credited < 0 || st.Credited > len(st.Chosen) {
		return fmt.Errorf("tla: ensemble state does not fit a pool of %d", len(e.Pool))
	}
	for _, alg := range st.Chosen {
		if alg < 0 || alg >= len(e.Pool) {
			return fmt.Errorf("tla: ensemble state names pool member %d of %d", alg, len(e.Pool))
		}
	}
	for i, raw := range st.Members {
		if sp, ok := e.Pool[i].(core.StatefulProposer); ok {
			if err := sp.RestoreState(raw); err != nil {
				return err
			}
		}
	}
	e.chosen, e.credited, e.bestOut = st.Chosen, st.Credited, nil
	for _, v := range st.BestOut {
		if v == nil {
			e.bestOut = append(e.bestOut, math.Inf(1))
		} else {
			e.bestOut = append(e.bestOut, *v)
		}
	}
	return nil
}

// ChosenCounts reports how often each pool member was selected — a
// diagnostic used by the experiments harness.
func (e *Ensemble) ChosenCounts() map[string]int {
	out := make(map[string]int, len(e.Pool))
	for _, alg := range e.chosen {
		out[e.Pool[alg].Name()]++
	}
	return out
}
