package crowd

import (
	"context"
	"encoding/json"
	"fmt"
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
		return errMissing("tuning_problem_name")
	}
	if len(m.Model) == 0 || string(m.Model) == "null" {
		return errMissing("model")
	}
	switch m.Accessibility {
	case "", "public", "private", "shared":
		return nil
	}
	return errBadAccess(m.Accessibility)
}

type fieldError string

func (e fieldError) Error() string { return string(e) }

func errMissing(f string) error   { return fieldError("crowd: surrogate model needs " + f) }
func errBadAccess(a string) error { return fieldError("crowd: unknown accessibility " + a) }

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
func (s *Server) handleModelUpload(w http.ResponseWriter, r *http.Request, user string) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req ModelUploadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	entry, owner := s.claimBatch("surrogate", user, req.BatchID)
	if !owner {
		s.metrics.replays.Inc()
		writeJSON(w, entry.status, entry.payload)
		return
	}
	status, payload := s.applyModelUpload(&req, user)
	finishBatch(entry, status, payload)
	writeJSON(w, status, payload)
}

func (s *Server) applyModelUpload(req *ModelUploadRequest, user string) (int, interface{}) {
	if len(req.Models) == 0 {
		return http.StatusBadRequest, errorResponse{Error: "no models in upload"}
	}
	docs := make([]historydb.Document, len(req.Models))
	for i := range req.Models {
		m := &req.Models[i]
		if err := m.Validate(); err != nil {
			return http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("model %d: %v", i, err)}
		}
		m.Owner = user
		if m.Accessibility == "" {
			m.Accessibility = "public"
		}
		m.Machine = m.Machine.Normalize()
		b, err := json.Marshal(m)
		if err != nil {
			return http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("model %d: %v", i, err)}
		}
		var doc historydb.Document
		if err := json.Unmarshal(b, &doc); err != nil {
			return http.StatusInternalServerError, errorResponse{Error: fmt.Sprintf("model %d: %v", i, err)}
		}
		delete(doc, "_id")
		docs[i] = doc
	}
	ids, err := s.models().InsertMany(docs)
	if err != nil {
		return http.StatusInternalServerError, errorResponse{Error: fmt.Sprintf("store error: %v", err)}
	}
	s.metrics.uploads.Inc()
	return http.StatusOK, ModelUploadResponse{IDs: ids}
}

func (s *Server) handleModelQuery(w http.ResponseWriter, r *http.Request, user string) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req ModelQueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.TuningProblemName == "" {
		writeErr(w, http.StatusBadRequest, "tuning_problem_name required")
		return
	}
	var resp ModelQueryResponse
	_, err := s.models().Scan(r.Context(), historydb.Eq(problemField, req.TuningProblemName), func(d historydb.Document) bool {
		b, err := json.Marshal(d)
		if err != nil {
			return true
		}
		var m SurrogateModelDoc
		if json.Unmarshal(b, &m) != nil || !canSee(&FuncEval{Accessibility: m.Accessibility, Owner: m.Owner}, user) {
			return true
		}
		resp.Models = append(resp.Models, m)
		return req.Limit <= 0 || len(resp.Models) < req.Limit
	})
	if err != nil {
		writeStoreErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// UploadModels stores pre-trained surrogate models on the server.
func (c *Client) UploadModels(models []SurrogateModelDoc) ([]string, error) {
	return c.UploadModelsContext(context.Background(), models)
}

// UploadModelsContext is UploadModels with request-scoped cancellation.
// The batch carries a fresh idempotency id, so retried attempts are
// applied at most once by the server.
func (c *Client) UploadModelsContext(ctx context.Context, models []SurrogateModelDoc) ([]string, error) {
	var resp ModelUploadResponse
	req := ModelUploadRequest{Models: models, BatchID: newBatchID()}
	if err := c.post(ctx, "/api/v1/surrogate/upload", req, &resp); err != nil {
		return nil, err
	}
	return resp.IDs, nil
}

// QueryModels downloads stored surrogate models for a problem.
func (c *Client) QueryModels(problem string, limit int) ([]SurrogateModelDoc, error) {
	return c.QueryModelsContext(context.Background(), problem, limit)
}

// QueryModelsContext is QueryModels with request-scoped cancellation.
func (c *Client) QueryModelsContext(ctx context.Context, problem string, limit int) ([]SurrogateModelDoc, error) {
	var resp ModelQueryResponse
	if err := c.post(ctx, "/api/v1/surrogate/query", ModelQueryRequest{TuningProblemName: problem, Limit: limit}, &resp); err != nil {
		return nil, err
	}
	return resp.Models, nil
}
