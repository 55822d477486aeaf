// Package core contains the Bayesian-optimization engine shared by
// every tuner, NoTLA and each transfer-learning algorithm alike: the
// tuning problem abstraction, evaluation history with failure tracking,
// acquisition functions, acquisition search, and the tuning loop.
package core

import (
	"fmt"

	"gptunecrowd/internal/space"
)

// Evaluator runs the application (or its simulator) for one task and one
// tuning-parameter configuration, returning the objective value
// (a runtime, to be minimized). Returning an error marks the evaluation
// as failed (e.g. an out-of-memory run); failed evaluations consume
// budget but are excluded from surrogate fitting, as in Section VI-C of
// the paper.
type Evaluator interface {
	Evaluate(task, params map[string]interface{}) (float64, error)
}

// EvaluatorFunc adapts a function to the Evaluator interface.
type EvaluatorFunc func(task, params map[string]interface{}) (float64, error)

// Evaluate implements Evaluator.
func (f EvaluatorFunc) Evaluate(task, params map[string]interface{}) (float64, error) {
	return f(task, params)
}

// Constraint is a named feasibility predicate over decoded
// configurations (GPTune's "problem constraints"): infeasible points
// are never proposed, saving the budget that failed evaluations would
// burn.
type Constraint struct {
	Name  string
	Check func(task, params map[string]interface{}) bool
}

// Problem is a tuning problem: the task (input) space, the
// tuning-parameter space, the output space and the objective evaluator.
type Problem struct {
	Name       string
	TaskSpace  *space.Space
	ParamSpace *space.Space
	Output     space.OutputSpace
	Evaluator  Evaluator
	// Constraints restrict the feasible configuration set. All must
	// pass for a point to be proposed.
	Constraints []Constraint
}

// Feasible reports whether params satisfies every constraint.
func (p *Problem) Feasible(task, params map[string]interface{}) bool {
	for _, c := range p.Constraints {
		if c.Check != nil && !c.Check(task, params) {
			return false
		}
	}
	return true
}

// Validate checks that the problem is runnable.
func (p *Problem) Validate() error {
	if err := validateSessionProblem(p); err != nil {
		return err
	}
	if p.Evaluator == nil {
		return fmt.Errorf("core: problem %q needs an evaluator", p.Name)
	}
	return nil
}

// CategoricalMask returns the per-dimension categorical flags of the
// parameter space, for kernel construction.
func (p *Problem) CategoricalMask() []bool { return p.ParamSpace.CategoricalMask() }
