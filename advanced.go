package gptunecrowd

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"

	"gptunecrowd/internal/core"
	"gptunecrowd/internal/crowd"
	"gptunecrowd/internal/gp"
	"gptunecrowd/internal/surrogate"
	"gptunecrowd/internal/variability"
)

// --- Suggest-only API (drive your own evaluation loop).

// SuggestNext is SuggestNextContext with context.Background(). It stays
// only because bench/ calls it.
func SuggestNext(p *Problem, h *History, algorithm string, sources []*SourceTask, seed int64) (map[string]interface{}, error) {
	return SuggestNextContext(context.Background(), p, h, algorithm, sources, seed)
}

// SuggestNextContext proposes the next configuration to evaluate for
// the given history, without evaluating anything — for users who run
// their application out-of-band (batch queues, manual runs) and feed
// results back via ReportResult. Cancellation is checked between the
// proposal's stages for every algorithm: before the surrogate fit and
// between the fit and the acquisition search. A stage that has started
// runs to its end, so a cancel costs at most one fit or one search
// before it surfaces as the context error.
func SuggestNextContext(ctx context.Context, p *Problem, h *History, algorithm string, sources []*SourceTask, seed int64) (map[string]interface{}, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if h == nil {
		h = &History{}
	}
	prop, err := NewProposer(algorithm, sources, 0)
	if err != nil {
		return nil, err
	}
	pctx := &core.ProposeContext{
		Ctx:     ctx,
		Problem: p,
		History: h,
		Rng:     rand.New(rand.NewSource(seed)),
		Iter:    h.Len(),
	}
	u, err := prop.Propose(pctx)
	if err != nil {
		return nil, err
	}
	return p.ParamSpace.Decode(p.ParamSpace.Canonicalize(u)), nil
}

// ReportResult appends an out-of-band evaluation result to a history.
// Pass a non-nil evalErr to record a failed run.
func ReportResult(p *Problem, h *History, params map[string]interface{}, y float64, evalErr error) error {
	u, err := p.ParamSpace.Encode(params)
	if err != nil {
		return err
	}
	s := Sample{ParamU: p.ParamSpace.Canonicalize(u), Params: params, Y: y}
	if evalErr != nil {
		s.Failed = true
		s.Err = evalErr.Error()
		s.Y = 0
	}
	h.Append(s)
	return nil
}

// --- Parallel (batched) tuning.

// BatchTuneOptions extends TuneOptions with batching controls.
type BatchTuneOptions struct {
	TuneOptions
	// BatchSize proposals are generated per round (default 2), spread
	// by constant liars, and evaluated concurrently.
	BatchSize int
	// Workers caps concurrent evaluations (default BatchSize).
	Workers int
}

// TuneBatchContext runs the batched tuning loop: useful when the
// allocation can evaluate several trial configurations at once. It is
// the same session as TuneContext, driven by
// TuningSession.RunBatchContext, so every TuneOptions field applies and
// a cancel returns a partial Result with a resumable Checkpoint.
func TuneBatchContext(ctx context.Context, p *Problem, task map[string]interface{}, opts BatchTuneOptions) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s, err := NewTuningSession(p, task, opts.TuneOptions)
	if err != nil {
		return nil, err
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 2
	}
	return s.RunBatchContext(ctx, opts.BatchSize, opts.Workers)
}

// --- Performance-variability detection (the paper's stated future
// work, implemented here).

type (
	// VariabilityReport summarizes repeated-measurement noise.
	VariabilityReport = variability.Report
	// ConfigStats is per-configuration variability.
	ConfigStats = variability.ConfigStats
	// RobustEvaluator repeats and aggregates measurements.
	RobustEvaluator = variability.RobustEvaluator
)

// AnalyzeVariability inspects a tuning history for configurations whose
// repeated measurements disagree by more than cvThreshold (coefficient
// of variation).
func AnalyzeVariability(h *History, cvThreshold float64) *VariabilityReport {
	return variability.Analyze(variability.FromHistory(h), cvThreshold)
}

// NewRobustEvaluator wraps an evaluator with repeat-and-aggregate
// measurement (median of `repeats` runs, adaptive re-measuring).
func NewRobustEvaluator(inner Evaluator, repeats int) *RobustEvaluator {
	return &variability.RobustEvaluator{Inner: inner, Repeats: repeats}
}

// --- Pre-trained surrogate model sharing.

// SurrogateModelDoc is a stored pre-trained surrogate model envelope.
type SurrogateModelDoc = crowd.SurrogateModelDoc

// UploadSurrogateModelContext fits a GP to the successful samples of a
// history and stores it on the crowd server as a pre-trained model for
// the problem/task, returning the stored id. The context covers the
// upload and its retries.
func UploadSurrogateModelContext(ctx context.Context, c *CrowdClient, d *MetaDescription, task map[string]interface{}, h *History,
	machine MachineConfiguration, accessibility string) (string, error) {
	X, Y := h.XY()
	if len(X) < 2 {
		return "", fmt.Errorf("gptunecrowd: need at least 2 successful samples to fit a model")
	}
	ps := d.ProblemSpace.ParameterSpace
	model, err := surrogate.FitGP(surrogate.Config{Dim: ps.Dim(), Categorical: ps.CategoricalMask()}, 1, X, Y)
	if err != nil {
		return "", err
	}
	payload, err := json.Marshal(model)
	if err != nil {
		return "", err
	}
	ids, err := c.UploadModelsContext(ctx, []SurrogateModelDoc{{
		TuningProblemName: d.TuningProblemName,
		TaskParams:        task,
		Machine:           machine,
		NumSamples:        len(X),
		Accessibility:     accessibility,
		Model:             payload,
	}})
	if err != nil {
		return "", err
	}
	return ids[0], nil
}

// DownloadSurrogateModelContext fetches the most recently stored
// pre-trained model for the problem and returns it as a black-box
// SurrogateModel over decoded configurations. The context covers the
// query and its retries.
func DownloadSurrogateModelContext(ctx context.Context, c *CrowdClient, d *MetaDescription) (SurrogateModel, error) {
	models, err := c.QueryModelsContext(ctx, d.TuningProblemName, 0)
	if err != nil {
		return nil, err
	}
	if len(models) == 0 {
		return nil, fmt.Errorf("gptunecrowd: no stored models for %q", d.TuningProblemName)
	}
	latest := models[len(models)-1]
	model, err := gp.FromJSON(latest.Model)
	if err != nil {
		return nil, err
	}
	ps := d.ProblemSpace.ParameterSpace
	if model.Dim() != ps.Dim() {
		return nil, fmt.Errorf("gptunecrowd: stored model has dimension %d, parameter space has %d", model.Dim(), ps.Dim())
	}
	return surrogateOver(ps, model.Predict), nil
}
