package crowd

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"gptunecrowd/internal/historydb"
)

// SurrogateModelDoc is a stored pre-trained surrogate model (Section
// V-A-1: the database holds "pre-trained surrogate performance models
// of source tasks" alongside raw samples). The model payload is opaque
// JSON (produced by gp.GP.MarshalJSON); the envelope carries the
// metadata needed to find it again.
type SurrogateModelDoc struct {
	ID                string                 `json:"_id,omitempty"`
	TuningProblemName string                 `json:"tuning_problem_name"`
	TaskParams        map[string]interface{} `json:"task_parameters,omitempty"`
	Machine           MachineConfiguration   `json:"machine_configuration,omitempty"`
	NumSamples        int                    `json:"num_samples"`
	Owner             string                 `json:"owner,omitempty"`
	Accessibility     string                 `json:"accessibility"`
	Model             json.RawMessage        `json:"model"`
}

// Validate checks the envelope.
func (m *SurrogateModelDoc) Validate() error {
	if m.TuningProblemName == "" {
		return errors.New("crowd: surrogate model needs tuning_problem_name")
	}
	if len(m.Model) == 0 || string(m.Model) == "null" {
		return errors.New("crowd: surrogate model needs model")
	}
	switch m.Accessibility {
	case "", "public", "private", "shared":
		return nil
	}
	return errors.New("crowd: unknown accessibility " + m.Accessibility)
}

// ModelUploadRequest / ModelQueryRequest are the wire forms.
type ModelUploadRequest struct {
	Models []SurrogateModelDoc `json:"models"`
	// BatchID is an optional client-generated idempotency key; see
	// UploadRequest.BatchID.
	BatchID string `json:"batch_id,omitempty"`
}

// ModelUploadResponse reports assigned ids.
type ModelUploadResponse struct {
	IDs []string `json:"ids"`
}

// ModelQueryRequest selects stored models.
type ModelQueryRequest struct {
	TuningProblemName string `json:"tuning_problem_name"`
	Limit             int    `json:"limit,omitempty"`
}

// ModelQueryResponse carries matching models.
type ModelQueryResponse struct {
	Models []SurrogateModelDoc `json:"models"`
}

func (s *Server) models() *historydb.Collection { return s.store.Collection("surrogate_models") }

// handleModelUpload stores surrogate models atomically, with the same
// batch-id idempotency as function-evaluation uploads.
func (s *Server) handleModelUpload(_ context.Context, user string, req *ModelUploadRequest) (int, interface{}) {
	return s.once("surrogate", user, req.BatchID, func() (int, interface{}) { return s.applyModelUpload(req, user) })
}

func (s *Server) applyModelUpload(req *ModelUploadRequest, user string) (int, interface{}) {
	if len(req.Models) == 0 {
		return fail(http.StatusBadRequest, "no models in upload")
	}
	docs := make([]historydb.Document, len(req.Models))
	for i := range req.Models {
		m := &req.Models[i]
		if err := m.Validate(); err != nil {
			return fail(http.StatusBadRequest, "model %d: %v", i, err)
		}
		m.Owner = user
		if m.Accessibility == "" {
			m.Accessibility = "public"
		}
		m.Machine = m.Machine.Normalize()
		doc, err := toDocument(m)
		if err != nil {
			return fail(http.StatusBadRequest, "model %d: %v", i, err)
		}
		docs[i] = doc
	}
	ids, err := s.models().InsertMany(docs)
	if err != nil {
		return fail(http.StatusInternalServerError, "store error: %v", err)
	}
	s.metrics.uploads.Inc()
	return http.StatusOK, ModelUploadResponse{IDs: ids}
}

func (s *Server) handleModelQuery(ctx context.Context, user string, req *ModelQueryRequest) (int, interface{}) {
	if req.TuningProblemName == "" {
		return fail(http.StatusBadRequest, "tuning_problem_name required")
	}
	var resp ModelQueryResponse
	_, err := s.models().Scan(ctx, historydb.Eq(problemField, req.TuningProblemName), func(d historydb.Document) bool {
		if !docVisible(d, user) {
			return true
		}
		m, err := fromDocument[SurrogateModelDoc](d)
		if err != nil {
			return true
		}
		resp.Models = append(resp.Models, *m)
		return req.Limit <= 0 || len(resp.Models) < req.Limit
	})
	if err != nil {
		return storeFail(err)
	}
	return http.StatusOK, resp
}

// UploadModelsContext stores pre-trained surrogate models on the server.
// The batch carries a fresh idempotency id, so retried attempts are
// applied at most once by the server.
func (c *Client) UploadModelsContext(ctx context.Context, models []SurrogateModelDoc) ([]string, error) {
	var resp ModelUploadResponse
	req := ModelUploadRequest{Models: models, BatchID: newBatchID()}
	err := c.post(ctx, PathSurrogateUpload, req, &resp)
	return resp.IDs, err
}

// QueryModelsContext downloads stored surrogate models for a problem.
func (c *Client) QueryModelsContext(ctx context.Context, problem string, limit int) ([]SurrogateModelDoc, error) {
	var resp ModelQueryResponse
	err := c.post(ctx, PathSurrogateQuery, ModelQueryRequest{TuningProblemName: problem, Limit: limit}, &resp)
	return resp.Models, err
}
