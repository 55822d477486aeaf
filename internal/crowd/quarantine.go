package crowd

import (
	"context"
	"net/http"
	"sync"
	"time"

	"gptunecrowd/internal/historydb"
)

// QuarantinedSample is one rejected upload held for inspection instead
// of dropped: the sample itself plus who sent it, why it was rejected,
// and whether an admin has since released it into the main store.
type QuarantinedSample struct {
	ID       string           `json:"_id,omitempty"`
	Sample   FuncEval         `json:"sample"`
	Uploader string           `json:"uploader"`
	Reason   QuarantineReason `json:"reason"`
	Detail   string           `json:"detail,omitempty"`
	// ReceivedAt is the server time the upload arrived (RFC 3339).
	ReceivedAt string `json:"received_at,omitempty"`
	Released   bool   `json:"released,omitempty"`
	// FuncEvalID is the id the sample got in func_evals when released.
	FuncEvalID string `json:"func_eval_id,omitempty"`
}

// QuarantineStats are the quarantine gauges served on /api/v1/stats.
type QuarantineStats struct {
	Total    int64            `json:"total"`    // samples ever quarantined
	Held     int64            `json:"held"`     // currently held (not released)
	Released int64            `json:"released"` // released by an admin
	ByReason map[string]int64 `json:"by_reason,omitempty"`
}

// quarantineCounters maintains the gauges incrementally (the collection
// is only scanned on rebuild).
type quarantineCounters struct {
	mu       sync.Mutex
	total    int64
	released int64
	byReason map[string]int64
}

func (q *quarantineCounters) record(reason QuarantineReason) {
	q.mu.Lock()
	if q.byReason == nil {
		q.byReason = make(map[string]int64)
	}
	q.total++
	q.byReason[string(reason)]++
	q.mu.Unlock()
}

func (q *quarantineCounters) release() {
	q.mu.Lock()
	q.released++
	q.mu.Unlock()
}

func (q *quarantineCounters) snapshot() QuarantineStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := QuarantineStats{Total: q.total, Held: q.total - q.released, Released: q.released}
	if len(q.byReason) > 0 {
		st.ByReason = make(map[string]int64, len(q.byReason))
		for k, v := range q.byReason {
			st.ByReason[k] = v
		}
	}
	return st
}

func (s *Server) quarantine() *historydb.Collection { return s.store.Collection("quarantine") }

// quarantineSample stores one rejected sample in the quarantine
// collection and updates the gauges and the uploader's reputation.
func (s *Server) quarantineSample(fe *FuncEval, user string, reason QuarantineReason, detail string) error {
	qs := QuarantinedSample{
		Sample:     *fe,
		Uploader:   user,
		Reason:     reason,
		Detail:     detail,
		ReceivedAt: time.Now().UTC().Format(time.RFC3339Nano),
	}
	doc, err := toDocument(&qs)
	if err != nil {
		return err
	}
	if _, err := s.quarantine().Insert(doc); err != nil {
		return err
	}
	s.qCounters.record(reason)
	s.reputation.recordQuarantined(user)
	return nil
}

// RebuildTrustState recomputes the quarantine gauges and uploader
// reputation counters from the persisted quarantine and func_evals
// collections. Call it after loading persisted collections into the
// store (cmd/crowdserver does), alongside RebuildUserIndex.
func (s *Server) RebuildTrustState() error {
	qc := &quarantineCounters{byReason: make(map[string]int64)}
	rep := newReputationStore()
	// A background context cannot expire, so these scans cannot fail.
	s.quarantine().Scan(context.Background(), nil, func(d historydb.Document) bool {
		ok := true
		reason := field[string](d["reason"], &ok)
		uploader := field[string](d["uploader"], &ok)
		released := field[bool](d["released"], &ok)
		if !ok {
			return true
		}
		qc.total++
		qc.byReason[reason]++
		rep.recordQuarantined(uploader)
		if released {
			qc.released++
			rep.recordReleased(uploader)
		}
		return true
	})
	s.funcEvals().Scan(context.Background(), nil, func(d historydb.Document) bool {
		if owner, _ := d["owner"].(string); owner != "" {
			rep.recordAccepted(owner)
		}
		return true
	})
	s.qCounters.mu.Lock()
	s.qCounters.total = qc.total
	s.qCounters.released = qc.released
	s.qCounters.byReason = qc.byReason
	s.qCounters.mu.Unlock()
	s.reputation.replace(rep)
	return nil
}

// QuarantineListRequest filters the quarantine listing.
type QuarantineListRequest struct {
	// Reason restricts to one reason code ("" = all).
	Reason string `json:"reason,omitempty"`
	// IncludeReleased also returns samples already released.
	IncludeReleased bool `json:"include_released,omitempty"`
	// Limit caps the number of returned entries (0 = no limit).
	Limit int `json:"limit,omitempty"`
}

// QuarantineListResponse carries matching quarantined samples.
type QuarantineListResponse struct {
	Items []QuarantinedSample `json:"items"`
}

// QuarantineReleaseRequest releases one quarantined sample by id.
type QuarantineReleaseRequest struct {
	ID string `json:"id"`
}

// QuarantineReleaseResponse reports the id the released sample received
// in the main func_evals collection.
type QuarantineReleaseResponse struct {
	FuncEvalID string `json:"func_eval_id"`
}

// isAdmin reports whether the user may administer the quarantine. With
// no configured AdminUsers every authenticated user qualifies (the
// single-operator deployment); otherwise only the listed ones.
func (s *Server) isAdmin(user string) bool {
	if len(s.cfg.AdminUsers) == 0 {
		return true
	}
	for _, u := range s.cfg.AdminUsers {
		if u == user {
			return true
		}
	}
	return false
}

// handleQuarantineList serves the quarantined samples, newest-first is
// not guaranteed (store order), admin-gated.
func (s *Server) handleQuarantineList(ctx context.Context, user string, req *QuarantineListRequest) (int, interface{}) {
	if !s.isAdmin(user) {
		return fail(http.StatusForbidden, "user %q is not a quarantine admin", user)
	}
	// Reason and released filter the stored document; only survivors
	// are decoded.
	resp := QuarantineListResponse{Items: []QuarantinedSample{}}
	_, err := s.quarantine().Scan(ctx, nil, func(d historydb.Document) bool {
		ok := true
		reason := field[string](d["reason"], &ok)
		released := field[bool](d["released"], &ok)
		if !ok || (req.Reason != "" && reason != req.Reason) || (released && !req.IncludeReleased) {
			return true
		}
		qs, err := fromDocument[QuarantinedSample](d)
		if err != nil {
			return true
		}
		resp.Items = append(resp.Items, *qs)
		return req.Limit <= 0 || len(resp.Items) < req.Limit
	})
	if err != nil {
		return storeFail(err)
	}
	return http.StatusOK, resp
}

// handleQuarantineRelease is an admin override that moves a quarantined
// sample into func_evals (the validation verdict stands, the human
// wins) and marks it released.
func (s *Server) handleQuarantineRelease(_ context.Context, user string, req *QuarantineReleaseRequest) (int, interface{}) {
	if !s.isAdmin(user) {
		return fail(http.StatusForbidden, "user %q is not a quarantine admin", user)
	}
	if req.ID == "" {
		return fail(http.StatusBadRequest, "id required")
	}
	// Releases are serialized so a doubled release cannot insert the
	// sample into func_evals twice.
	s.releaseMu.Lock()
	defer s.releaseMu.Unlock()
	doc, err := s.quarantine().FindOne(historydb.Eq("_id", req.ID))
	if err != nil {
		return storeFail(err)
	}
	if doc == nil {
		return fail(http.StatusNotFound, "quarantined sample %q not found", req.ID)
	}
	qs, err := fromDocument[QuarantinedSample](doc)
	if err != nil {
		return fail(http.StatusInternalServerError, "corrupt quarantine document: %v", err)
	}
	if qs.Released {
		// Idempotent replay: the sample is already in func_evals.
		return http.StatusOK, QuarantineReleaseResponse{FuncEvalID: qs.FuncEvalID}
	}
	fe := qs.Sample
	feDoc, err := toDocument(&fe)
	if err != nil {
		return fail(http.StatusInternalServerError, "encode sample: %v", err)
	}
	feID, err := s.funcEvals().Insert(feDoc)
	if err != nil {
		return storeFail(err)
	}
	// Nothing durable marks the sample released unless this journals.
	if _, err := s.quarantine().Update(historydb.Eq("_id", req.ID), func(d historydb.Document) {
		d["released"] = true
		d["func_eval_id"] = feID
	}); err != nil {
		return storeFail(err)
	}
	s.qCounters.release()
	s.reputation.recordReleased(qs.Uploader)
	s.suggest.NotifyAppend(fe.TuningProblemName, 1)
	return http.StatusOK, QuarantineReleaseResponse{FuncEvalID: feID}
}
