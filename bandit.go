package gptunecrowd

import (
	"gptunecrowd/internal/bandit"
)

// Multi-fidelity (GPTuneBand-style) tuning: cheap low-fidelity
// evaluations screen many configurations; survivors are promoted
// through successive-halving rungs up to full fidelity.
type (
	// FidelityEvaluator evaluates a configuration at a fidelity in
	// (0, 1]; objectives must be comparable across fidelities.
	FidelityEvaluator = bandit.FidelityEvaluator
	// FidelityEvaluatorFunc adapts a function.
	FidelityEvaluatorFunc = bandit.FidelityEvaluatorFunc
	// BanditOptions configures TuneMultiFidelity.
	BanditOptions = bandit.Options
	// BanditResult reports a multi-fidelity run.
	BanditResult = bandit.Result
	// Observation is one multi-fidelity evaluation record.
	Observation = bandit.Observation
)

// TuneMultiFidelity runs the GPTuneBand-style bandit tuner over the
// parameter space. Budget is counted in full-fidelity-evaluation
// units, so Budget=20 buys the same compute as 20 full runs but
// typically screens several times more configurations.
func TuneMultiFidelity(ps *Space, task map[string]interface{}, eval FidelityEvaluator, opts BanditOptions) (*BanditResult, error) {
	return bandit.Run(ps, task, eval, opts)
}
