package gptunecrowd

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"time"

	"gptunecrowd/internal/core"
	"gptunecrowd/internal/crowd"
	"gptunecrowd/internal/kernel"
	"gptunecrowd/internal/meta"
	"gptunecrowd/internal/sensitivity"
	"gptunecrowd/internal/surrogate"
)

// Crowd-facing re-exports.
type (
	// CrowdClient talks to a shared-database server.
	CrowdClient = crowd.Client
	// FuncEval is one crowd performance sample.
	FuncEval = crowd.FuncEval
	// MachineConfiguration records where a sample was measured.
	MachineConfiguration = crowd.MachineConfiguration
	// SoftwareConfiguration records one software component.
	SoftwareConfiguration = crowd.SoftwareConfiguration
	// ConfigurationSpace filters queries by environment.
	ConfigurationSpace = crowd.ConfigurationSpace
	// QueryRequest is a crowd query.
	QueryRequest = crowd.QueryRequest
	// SuggestRequest asks the server's suggestion service for the next
	// configuration to evaluate (POST /api/v1/suggest).
	SuggestRequest = crowd.SuggestRequest
	// SuggestResponse is a server-proposed configuration plus its
	// surrogate provenance (model version, sample count, cache state).
	SuggestResponse = crowd.SuggestResponse
	// APIError is a typed crowd-server failure (status code + server
	// message); use errors.As to distinguish auth, validation and
	// overload errors.
	APIError = crowd.APIError
	// MetaDescription is a parsed Section IV-A meta description.
	MetaDescription = meta.Description
	// SurrogateModel predicts mean and standard deviation for a decoded
	// configuration — the black-box model returned by
	// QuerySurrogateModel.
	SurrogateModel func(cfg map[string]interface{}) (mean, std float64)
	// SensitivityResult holds Sobol' indices (S1/ST with confidence
	// half-widths).
	SensitivityResult = sensitivity.Result
)

// Connect returns a client for the shared database at url with default
// timeout and retry behaviour. It is a compatibility wrapper over
// ConnectWith; use ConnectWith when any knob needs turning.
func Connect(url, apiKey string) *CrowdClient {
	return ConnectWith(ConnectOptions{URL: url, APIKey: apiKey})
}

// ConnectOptions configures a crowd-database client. The zero value of
// every field selects the library default, so populating only URL and
// APIKey reproduces Connect.
type ConnectOptions struct {
	// URL is the server base URL (required).
	URL string
	// APIKey authenticates every request; empty is accepted only by
	// servers running without access control.
	APIKey string
	// Timeout bounds each individual HTTP attempt (not the whole retry
	// loop); 0 means the library default. For an overall deadline pass
	// a context to the *Context methods.
	Timeout time.Duration
	// MaxRetries is the number of additional attempts after the first
	// on retryable failures (429/5xx/network); 0 means the library
	// default, negative disables retries.
	MaxRetries int
	// Logger, when non-nil, receives one structured record per retried
	// attempt and per final failure, stamped with the context's trace
	// ID. Nil logs nothing.
	Logger *slog.Logger
	// Transport, when non-nil, replaces the HTTP transport (for
	// proxies, custom TLS, or request capture in tests).
	Transport http.RoundTripper
}

// ConnectWith returns a client for the shared database configured by
// opts.
func ConnectWith(opts ConnectOptions) *CrowdClient {
	c := crowd.NewClient(opts.URL, opts.APIKey)
	c.Timeout = opts.Timeout
	c.MaxRetries = opts.MaxRetries
	c.Logger = opts.Logger
	if opts.Transport != nil {
		c.HTTP = &http.Client{Transport: opts.Transport}
	}
	return c
}

// ConnectMeta returns a client configured from a meta description.
func ConnectMeta(d *MetaDescription) *CrowdClient {
	return crowd.NewClient(d.CrowdRepoURL, d.APIKey)
}

// QueryFunctionEvaluations downloads the samples selected by the meta
// description — the paper's QueryFunctionEvaluations utility.
func QueryFunctionEvaluations(c *CrowdClient, d *MetaDescription) ([]FuncEval, error) {
	return QueryFunctionEvaluationsContext(context.Background(), c, d)
}

// QueryFunctionEvaluationsContext is QueryFunctionEvaluations with
// request-scoped cancellation: the context bounds the whole download,
// including the client's internal retries.
func QueryFunctionEvaluationsContext(ctx context.Context, c *CrowdClient, d *MetaDescription) ([]FuncEval, error) {
	return c.QueryContext(ctx, d.QueryRequest())
}

// SurrogateOptions selects the surrogate modeling technique for the
// Query* utilities (the paper's "several modeling options").
type SurrogateOptions struct {
	// Kernel family: "matern52" (default), "matern32" or "rbf".
	Kernel string
	Seed   int64
}

func (o SurrogateOptions) kernelType() (kernel.Type, error) {
	if o.Kernel == "" {
		return kernel.Matern52, nil
	}
	return kernel.ParseType(o.Kernel)
}

// QuerySurrogateModelOpts is QuerySurrogateModel with an explicit
// modeling technique.
func QuerySurrogateModelOpts(c *CrowdClient, d *MetaDescription, opts SurrogateOptions) (SurrogateModel, error) {
	kt, err := opts.kernelType()
	if err != nil {
		return nil, err
	}
	evals, err := QueryFunctionEvaluations(c, d)
	if err != nil {
		return nil, err
	}
	ps := d.ProblemSpace.ParameterSpace
	model, err := fitFromEvals(ps, evals, kt, opts.Seed+1)
	if err != nil {
		return nil, err
	}
	return func(cfg map[string]interface{}) (float64, float64) {
		u, err := ps.Encode(cfg)
		if err != nil {
			return 0, 0
		}
		return model.Predict(ps.Canonicalize(u))
	}, nil
}

// fitFromEvals fits a GP on downloaded crowd samples over the given
// parameter space, through the same door every other model is built by.
func fitFromEvals(ps *Space, evals []FuncEval, kt kernel.Type, seed int64) (core.Surrogate, error) {
	if len(evals) == 0 {
		return nil, fmt.Errorf("gptunecrowd: no samples to model")
	}
	var X [][]float64
	var Y []float64
	for _, e := range evals {
		if e.Failed {
			continue
		}
		u, err := ps.Encode(e.TuningParams)
		if err != nil {
			continue
		}
		X = append(X, ps.Canonicalize(u))
		Y = append(Y, e.Output)
	}
	if len(X) < 2 {
		return nil, fmt.Errorf("gptunecrowd: only %d encodable samples; need at least 2", len(X))
	}
	model, err := surrogate.New(surrogate.KindGP, surrogate.Config{Dim: ps.Dim(), Kernel: kt, Categorical: ps.CategoricalMask()})
	if err != nil {
		return nil, err
	}
	model.(interface{ SetSeed(int64) }).SetSeed(seed)
	if err := model.Fit(X, Y); err != nil {
		return nil, err
	}
	return model, nil
}

// QuerySurrogateModel downloads the selected samples and returns a
// black-box surrogate over decoded configurations — the paper's
// QuerySurrogateModel utility.
func QuerySurrogateModel(c *CrowdClient, d *MetaDescription) (SurrogateModel, error) {
	return QuerySurrogateModelOpts(c, d, SurrogateOptions{})
}

// QueryPredictOutput predicts the output for one configuration using a
// surrogate fitted to the queried samples — the paper's
// QueryPredictOutput utility.
func QueryPredictOutput(c *CrowdClient, d *MetaDescription, cfg map[string]interface{}) (float64, error) {
	surr, err := QuerySurrogateModel(c, d)
	if err != nil {
		return 0, err
	}
	mean, _ := surr(cfg)
	return mean, nil
}

// SensitivityOptions tunes QuerySensitivityAnalysis.
type SensitivityOptions struct {
	N     int // Saltelli base samples (default 1024)
	NBoot int // bootstrap replicates (default 100)
	Seed  int64
}

// QuerySensitivityAnalysis downloads the selected samples, fits a
// surrogate, and runs a Sobol' sensitivity analysis over it — the
// paper's QuerySensitivityAnalysis utility (the workflow behind Tables
// IV and V).
func QuerySensitivityAnalysis(c *CrowdClient, d *MetaDescription, opts SensitivityOptions) (*SensitivityResult, error) {
	evals, err := QueryFunctionEvaluations(c, d)
	if err != nil {
		return nil, err
	}
	return SensitivityFromEvals(d.ProblemSpace.ParameterSpace, evals, opts)
}

// SensitivityFromEvals runs the same analysis on an in-memory sample
// set (no server required).
func SensitivityFromEvals(ps *Space, evals []FuncEval, opts SensitivityOptions) (*SensitivityResult, error) {
	model, err := fitFromEvals(ps, evals, kernel.Matern52, opts.Seed+1)
	if err != nil {
		return nil, err
	}
	return sensitivity.Analyze(func(u []float64) float64 {
		m, _ := model.Predict(ps.Canonicalize(u))
		return m
	}, ps.Dim(), ps.Names(), sensitivity.Options{N: opts.N, NBoot: opts.NBoot, Seed: opts.Seed})
}

// SensitivityFromFunc runs a Sobol' analysis directly on an objective
// function over a parameter space (no surrogate), useful when the
// objective is cheap (e.g. a simulator).
func SensitivityFromFunc(f func(cfg map[string]interface{}) float64, ps *Space, opts SensitivityOptions) (*SensitivityResult, error) {
	return sensitivity.AnalyzeSpace(f, ps, sensitivity.Options{N: opts.N, NBoot: opts.NBoot, Seed: opts.Seed})
}

// UploadHistory pushes a tuning run's evaluations to the shared
// database under the meta description's environment (the
// sync_crowd_repo="yes" path).
func UploadHistory(c *CrowdClient, d *MetaDescription, task map[string]interface{}, h *History,
	machine MachineConfiguration, software []SoftwareConfiguration, accessibility string) ([]string, error) {
	return UploadHistoryContext(context.Background(), c, d, task, h, machine, software, accessibility)
}

// UploadHistoryContext is UploadHistory with request-scoped
// cancellation. The upload is sent as one idempotent batch, so client
// retries never store a sample twice.
func UploadHistoryContext(ctx context.Context, c *CrowdClient, d *MetaDescription, task map[string]interface{}, h *History,
	machine MachineConfiguration, software []SoftwareConfiguration, accessibility string) ([]string, error) {
	if len(h.Samples) == 0 {
		return nil, fmt.Errorf("gptunecrowd: empty history")
	}
	evals := make([]FuncEval, 0, len(h.Samples))
	for _, s := range h.Samples {
		evals = append(evals, FuncEval{
			TuningProblemName: d.TuningProblemName,
			TaskParams:        task,
			TuningParams:      s.Params,
			Output:            s.Y,
			Failed:            s.Failed,
			Machine:           machine,
			Software:          software,
			Accessibility:     accessibility,
		})
	}
	return c.UploadContext(ctx, evals)
}

// SourcesFromEvals groups downloaded crowd samples into one SourceTask
// per distinct task-parameter combination — the usual way to build the
// TLA source pool from a crowd query. Groups are ordered by decreasing
// sample count.
func SourcesFromEvals(ps *Space, evals []FuncEval) ([]*SourceTask, error) {
	groups := map[string][]FuncEval{}
	for _, e := range evals {
		if e.Failed {
			continue
		}
		key := taskKey(e.TaskParams)
		groups[key] = append(groups[key], e)
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("gptunecrowd: no successful samples")
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if len(groups[keys[a]]) != len(groups[keys[b]]) {
			return len(groups[keys[a]]) > len(groups[keys[b]])
		}
		return keys[a] < keys[b]
	})
	var out []*SourceTask
	for _, k := range keys {
		g := groups[k]
		cfgs := make([]map[string]interface{}, len(g))
		ys := make([]float64, len(g))
		for i, e := range g {
			cfgs[i] = e.TuningParams
			ys[i] = e.Output
		}
		src, _, err := SourceFromConfigs(k, ps, cfgs, ys)
		if err != nil {
			continue
		}
		out = append(out, src)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("gptunecrowd: no encodable source groups")
	}
	return out, nil
}

func taskKey(task map[string]interface{}) string {
	if len(task) == 0 {
		return "(default)"
	}
	keys := make([]string, 0, len(task))
	for k := range task {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += fmt.Sprintf("%s=%v;", k, task[k])
	}
	return out
}
