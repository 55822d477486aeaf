package tla

import (
	"fmt"

	"gptunecrowd/internal/core"
)

// Algorithms lists the supported tuner names: Table I of the paper plus
// the NoTLA baseline and the two naive ensembles — the nine-tuner
// lineup of Fig. 3.
func Algorithms() []string {
	return []string{
		"NoTLA",
		"Multitask(PS)",
		"Multitask(TS)",
		"WeightedSum(equal)",
		"WeightedSum(dynamic)",
		"Stacking",
		"Ensemble(proposed)",
		"Ensemble(toggling)",
		"Ensemble(prob)",
	}
}

var ensembleModes = map[string]EnsembleMode{
	"Ensemble(proposed)": EnsembleProposed,
	"Ensemble(toggling)": EnsembleToggling,
	"Ensemble(prob)":     EnsembleProb,
}

// NewProposer builds a fresh proposer by name (proposers carry per-run
// state, so every run needs its own). The empty name resolves to
// "NoTLA" without sources and "Ensemble(proposed)" with them; every
// other name but "NoTLA" needs sources. maxSourceSamples, when
// positive, caps the per-source samples Multitask(TS) feeds the LCM.
func NewProposer(name string, sources []*Source, maxSourceSamples int) (core.Proposer, error) {
	if name == "" {
		name = "NoTLA"
		if len(sources) > 0 {
			name = "Ensemble(proposed)"
		}
	}
	if name == "NoTLA" {
		return core.NewGPTuner(), nil
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("tla: algorithm %q requires source tasks", name)
	}
	capTS := func(p *MultitaskTS) {
		if maxSourceSamples > 0 {
			p.MaxSourceSamples = maxSourceSamples
		}
	}
	switch name {
	case "Multitask(PS)":
		return NewMultitaskPS(sources), nil
	case "Multitask(TS)":
		p := NewMultitaskTS(sources)
		capTS(p)
		return p, nil
	case "WeightedSum(equal)":
		return NewWeightedSumEqual(sources), nil
	case "WeightedSum(dynamic)":
		return NewWeightedSumDynamic(sources), nil
	case "Stacking":
		return NewStacking(sources), nil
	}
	if mode, ok := ensembleModes[name]; ok {
		e := NewEnsemble(sources, mode)
		for _, p := range e.Pool {
			if mt, ok := p.(*MultitaskTS); ok {
				capTS(mt)
			}
		}
		return e, nil
	}
	return nil, fmt.Errorf("tla: unknown algorithm %q (want one of %v)", name, Algorithms())
}
