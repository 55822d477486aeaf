package crowd

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"gptunecrowd/internal/historydb"
	"gptunecrowd/internal/suggest"
)

// SuggestRequest asks the server for the next configuration to evaluate
// for a (tuning problem, task) pair. The heavy lifting — surrogate
// fitting and acquisition search — happens server-side against the
// shared history, so the client needs no numerics.
type SuggestRequest struct {
	TuningProblemName string                 `json:"tuning_problem_name"`
	TaskParams        map[string]interface{} `json:"task_parameters,omitempty"`
	// Acquisition selects the scoring rule: "ei" (default), "lcb", "pi".
	Acquisition string `json:"acquisition,omitempty"`
	// Batch asks for that many distinct proposals in one call (0 and 1
	// are equivalent): the server spreads them with the constant-liar
	// strategy and remembers each point until its real sample is
	// uploaded.
	Batch int `json:"batch,omitempty"`
	// Surrogate optionally selects the server-side model family: "gp"
	// (default), "copula" or "sgp". Absent keeps the default; unknown
	// values fail with 400.
	Surrogate string `json:"surrogate,omitempty"`
}

// SuggestProposal is one point of a batched suggestion.
type SuggestProposal struct {
	TuningParams map[string]interface{} `json:"tuning_parameters"`
	ParamU       []float64              `json:"param_u,omitempty"`
}

// SuggestResponse is the proposed configuration plus the provenance a
// client needs to reason about staleness. The top-level fields mirror
// Proposals[0], so pre-batch clients keep working unchanged.
type SuggestResponse struct {
	TuningParams map[string]interface{} `json:"tuning_parameters"`
	ParamU       []float64              `json:"param_u,omitempty"`
	Proposals    []SuggestProposal      `json:"proposals,omitempty"`
	ModelVersion uint64                 `json:"model_version"`
	ModelSamples int                    `json:"model_samples"`
	CacheHit     bool                   `json:"cache_hit"`
	Proposer     string                 `json:"proposer"`
}

// storeSource adapts the server's history store to suggest.Source: one
// snapshot-isolated scan per fit, filtered to the requested problem and
// task, with tuning parameters encoded into the unit cube through the
// problem's registered policy space. The surrogate is fit over every
// stored sample regardless of accessibility — the server is the trusted
// aggregation point, and proposals expose only the model's argmax, not
// raw samples.
type storeSource struct{ s *Server }

// History implements suggest.Source. Version counts every sample
// matching (problem, task) — including failed evaluations and samples
// whose parameters no longer encode — so it advances exactly in step
// with NotifyAppend.
func (src storeSource) History(ctx context.Context, problem string, task map[string]interface{}) (*suggest.Snapshot, error) {
	policy, ok := src.s.policies.get(problem)
	if !ok || policy.Space == nil {
		return nil, suggest.ErrUnknownProblem
	}
	want := suggest.TaskKey(task)
	snap := &suggest.Snapshot{Space: policy.Space}
	scanned, err := src.s.funcEvals().Scan(ctx, historydb.Eq(problemField, problem), func(d historydb.Document) bool {
		m, ok := readMeasurement(d)
		if !ok || suggest.TaskKey(m.task) != want {
			return true
		}
		snap.Version++
		if m.failed {
			return true
		}
		// A legacy sample outside the declared space does not encode.
		if u, err := policy.Space.Encode(m.tuning); err == nil {
			snap.X = append(snap.X, u)
			snap.Y = append(snap.Y, m.y)
		}
		return true
	})
	src.s.metrics.scanned("suggest", scanned)
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// handleSuggest proposes the next configuration(s). Rate limiting
// (429), request deadlines and trace propagation come from the standard
// middleware chain.
func (s *Server) handleSuggest(ctx context.Context, _ string, req *SuggestRequest) (int, interface{}) {
	resp, err := s.suggest.Suggest(ctx, suggest.Request{
		Problem:     req.TuningProblemName,
		Task:        req.TaskParams,
		Acquisition: req.Acquisition,
		Batch:       req.Batch,
		Surrogate:   req.Surrogate,
	})
	if err != nil {
		switch {
		case errors.Is(err, suggest.ErrUnknownProblem):
			return http.StatusNotFound, errorResponse{
				Error: fmt.Sprintf("no registered problem policy for %q", req.TuningProblemName),
				Code:  "unknown_problem",
			}
		case errors.Is(err, suggest.ErrBadRequest):
			return fail(http.StatusBadRequest, "%v", err)
		}
		return storeFail(err)
	}
	out := SuggestResponse{
		TuningParams: resp.Params,
		ParamU:       resp.ParamU,
		ModelVersion: resp.ModelVersion,
		ModelSamples: resp.ModelSamples,
		CacheHit:     resp.CacheHit,
		Proposer:     resp.Proposer,
	}
	if req.Batch > 1 {
		out.Proposals = make([]SuggestProposal, len(resp.Proposals))
		for i, p := range resp.Proposals {
			out.Proposals[i] = SuggestProposal{TuningParams: p.Params, ParamU: p.ParamU}
		}
	}
	return http.StatusOK, out
}

// SuggestService exposes the suggestion service (bench harness and
// daemon wiring).
func (s *Server) SuggestService() *suggest.Service { return s.suggest }

// SuggestRemote asks the server for the next configuration to evaluate.
// The request inherits the context's trace ID, so client logs, server
// request lines and background fit lines share one trace.
func (c *Client) SuggestRemote(ctx context.Context, req SuggestRequest) (*SuggestResponse, error) {
	var resp SuggestResponse
	if err := c.post(ctx, PathSuggest, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
