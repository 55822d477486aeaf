// Package gptunecrowd is a Go implementation of GPTuneCrowd — the
// crowd-based autotuning framework for high-performance computing
// applications of Cho et al. (IPDPS 2023). It bundles:
//
//   - a Bayesian-optimization tuner with Gaussian-process surrogates,
//   - the transfer-learning algorithm pool of the paper's Table I
//     (Multitask PS/TS, WeightedSum static/equal/dynamic, Stacking, and
//     the proposed Ensemble),
//   - Sobol' parameter sensitivity analysis for search-space reduction,
//   - a shared performance database (HTTP server + client) with
//     meta-description-driven queries, API keys and access control.
//
// The quickest path: define a Problem, then
//
//	res, err := gptunecrowd.Tune(problem, task, gptunecrowd.TuneOptions{Budget: 20})
//
// Transfer learning needs source datasets (from the crowd database or
// local files):
//
//	opts := gptunecrowd.TuneOptions{Budget: 10, Algorithm: "Ensemble(proposed)", Sources: sources}
package gptunecrowd

import (
	"context"
	"fmt"
	"log/slog"

	"gptunecrowd/internal/core"
	"gptunecrowd/internal/meta"
	"gptunecrowd/internal/space"
	"gptunecrowd/internal/surrogate"
	"gptunecrowd/internal/tla"
)

// Re-exported problem-definition types: the public API is the only
// import an application needs.
type (
	// Problem is a tuning problem: spaces plus the objective evaluator.
	Problem = core.Problem
	// Evaluator runs the application for one (task, configuration) pair.
	Evaluator = core.Evaluator
	// EvaluatorFunc adapts a function to Evaluator.
	EvaluatorFunc = core.EvaluatorFunc
	// Space is an ordered list of parameters.
	Space = space.Space
	// Param describes one parameter.
	Param = space.Param
	// OutputSpace lists objectives.
	OutputSpace = space.OutputSpace
	// OutputParam describes one objective.
	OutputParam = space.OutputParam
	// History is the evaluation record of one tuning run.
	History = core.History
	// Sample is one recorded evaluation.
	Sample = core.Sample
	// Proposer is a point-suggestion algorithm (NoTLA or any TLA).
	Proposer = core.Proposer
	// SourceTask is a pre-collected dataset used for transfer learning.
	SourceTask = tla.Source
	// Constraint is a named feasibility predicate over configurations;
	// infeasible points are never proposed.
	Constraint = core.Constraint
)

// Parameter kind constants.
const (
	Real        = space.Real
	Integer     = space.Integer
	Categorical = space.Categorical
)

// NewSpace builds a validated Space.
func NewSpace(params ...Param) (*Space, error) { return space.New(params...) }

// MustSpace is NewSpace that panics on error.
func MustSpace(params ...Param) *Space { return space.MustNew(params...) }

// NewSource wraps a source dataset of normalized points and outputs.
func NewSource(name string, X [][]float64, Y []float64) *SourceTask {
	return tla.NewSource(name, X, Y)
}

// SourceFromConfigs builds a source dataset from decoded parameter
// configurations (e.g. downloaded crowd samples) by encoding them into
// the problem's normalized space. Configurations that fail to encode
// are skipped; the count of skipped samples is returned.
func SourceFromConfigs(name string, ps *Space, configs []map[string]interface{}, outputs []float64) (*SourceTask, int, error) {
	if len(configs) != len(outputs) {
		return nil, 0, fmt.Errorf("gptunecrowd: %d configs but %d outputs", len(configs), len(outputs))
	}
	var X [][]float64
	var Y []float64
	skipped := 0
	for i, cfg := range configs {
		u, err := ps.Encode(cfg)
		if err != nil {
			skipped++
			continue
		}
		X = append(X, ps.Canonicalize(u))
		Y = append(Y, outputs[i])
	}
	if len(X) == 0 {
		return nil, skipped, fmt.Errorf("gptunecrowd: no encodable samples for source %q", name)
	}
	return tla.NewSource(name, X, Y), skipped, nil
}

// TuneOptions configures a tuning run.
type TuneOptions struct {
	// Budget is NS, the number of function evaluations (required).
	Budget int
	// Seed makes the run reproducible.
	Seed int64
	// Algorithm and Surrogate are two spellings of one key into one
	// table of tuners, each a policy that picks a model per evaluation
	// over a set of models (DESIGN.md §13). Set at most one; setting
	// both is an error. Algorithm names the paper's lineup — see
	// Algorithms(); empty means "NoTLA" when Sources is empty and
	// "Ensemble(proposed)" otherwise.
	Algorithm string
	// Surrogate names the rest of the table: "auto" lets a budget-aware
	// bandit pick per iteration from {gp, lcm, copula, sgp,
	// space-filling}; "gp", "lcm", "copula" or "sgp" pins one model.
	Surrogate string
	// Sources are the transfer-learning datasets.
	Sources []*SourceTask
	// MaxSourceSamples caps per-source samples for the LCM of
	// Multitask(TS), the ensembles, "lcm" and "auto" (0 = 60).
	MaxSourceSamples int
	// OnSample observes evaluations as they land.
	OnSample func(i int, s Sample)
	// Metrics, when non-nil, receives the tuner's per-stage duration
	// histograms (tuner_fit_seconds, tuner_search_seconds,
	// tuner_propose_seconds, tuner_evaluate_seconds).
	Metrics *Metrics
	// Logger, when non-nil, receives structured diagnostics (surrogate
	// degradations, robust-ingestion notes). Nil logs nothing.
	Logger *slog.Logger
}

// Result reports a tuning run.
type Result struct {
	BestParams map[string]interface{}
	BestY      float64
	History    *History
	Algorithm  string
	// Checkpoint is set when a context-cancelled TuneContext returns a
	// partial result: pass it to ResumeTuningSession (with the same
	// problem and options) to continue the run where it stopped.
	Checkpoint []byte
}

// Algorithms lists the supported algorithm names (Table I plus the
// NoTLA baseline and the two naive ensembles).
func Algorithms() []string { return surrogate.Algorithms() }

// NewProposer constructs a proposer by algorithm name. Sources may be
// nil only for "NoTLA"; the empty name means "NoTLA" without sources
// and "Ensemble(proposed)" with them. maxSourceSamples, when positive,
// caps the per-source samples fed to an LCM.
func NewProposer(algorithm string, sources []*SourceTask, maxSourceSamples int) (Proposer, error) {
	return resolveProposer(TuneOptions{Algorithm: algorithm, Sources: sources, MaxSourceSamples: maxSourceSamples})
}

// Tune runs the tuning loop for the given task and returns the best
// configuration found. It is a thin wrapper over TuneContext with
// context.Background(); prefer TuneContext when the run should be
// cancellable.
func Tune(p *Problem, task map[string]interface{}, opts TuneOptions) (*Result, error) {
	return TuneContext(context.Background(), p, task, opts)
}

// TuneContext is Tune with cooperative cancellation. The context is
// checked between iterations and between a proposal's stages, and raced
// against the application evaluation, so a cancel takes effect even
// mid-evaluation. On cancellation it returns
// the wrapped context error together with a partial Result whose
// Checkpoint field resumes the run via ResumeTuningSession.
func TuneContext(ctx context.Context, p *Problem, task map[string]interface{}, opts TuneOptions) (*Result, error) {
	return TuneBatchContext(ctx, p, task, BatchTuneOptions{TuneOptions: opts, BatchSize: 1})
}

// LoadMeta parses a meta-description file (Section IV-A of the paper).
func LoadMeta(path string) (*meta.Description, error) { return meta.ParseFile(path) }

// ParseMeta parses a meta description from bytes.
func ParseMeta(data []byte) (*meta.Description, error) { return meta.Parse(data) }
