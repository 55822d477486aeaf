package crowd

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"gptunecrowd/internal/historydb"
	"gptunecrowd/internal/obs"
	"gptunecrowd/internal/suggest"
	"gptunecrowd/internal/taskpool"
)

// Config tunes the server's concurrency and overload behavior. The zero
// value selects the defaults below.
type Config struct {
	// MaxInFlight bounds the number of requests served concurrently;
	// excess requests are rejected immediately with HTTP 429 and a
	// Retry-After header rather than queued (load shedding).
	MaxInFlight int
	// RequestTimeout is the per-request deadline installed on every
	// request context. Store scans that outlive it abort with HTTP 503.
	RequestTimeout time.Duration
	// Slog receives one structured record per served request (method,
	// path, status, bytes, duration, trace). nil disables structured
	// request logging.
	Slog *slog.Logger
	// Registry receives the server's metrics families. nil allocates a
	// private registry; pass a shared one to co-expose daemon-level
	// metrics on the same /metrics endpoint.
	Registry *obs.Registry
	// TaskLeaseTTL is how long a task lease lives without a heartbeat
	// (taskpool.DefaultLeaseTTL when zero).
	TaskLeaseTTL time.Duration
	// TaskMaxAttempts caps how often a task may be leased before it is
	// dead-lettered (taskpool.DefaultMaxAttempts when zero).
	TaskMaxAttempts int
	// AdminUsers may list and release quarantined samples. Empty means
	// every authenticated user may (the single-operator deployment).
	AdminUsers []string

	// Suggestion-service tuning (zero values select the suggest package
	// defaults): how many appended samples a model absorbs incrementally
	// before a full refit, how far behind the history a served model may
	// lag, and the fit / search RNG seed.
	SuggestRefitEvery int
	SuggestMaxStale   int
	SuggestSeed       int64
}

// Defaults for the zero Config.
const (
	DefaultMaxInFlight    = 256
	DefaultRequestTimeout = 30 * time.Second
)

// maxRememberedBatches bounds the idempotency cache of completed upload
// batch ids (oldest completed entries are evicted first).
const maxRememberedBatches = 4096

func (c Config) maxInFlight() int {
	if c.MaxInFlight > 0 {
		return c.MaxInFlight
	}
	return DefaultMaxInFlight
}

func (c Config) requestTimeout() time.Duration {
	if c.RequestTimeout > 0 {
		return c.RequestTimeout
	}
	return DefaultRequestTimeout
}

// MetricsSnapshot is a point-in-time copy of the server's request
// counters, served on /api/v1/stats.
type MetricsSnapshot struct {
	Requests  int64 `json:"requests"`
	InFlight  int64 `json:"in_flight"`
	Rejected  int64 `json:"rejected"`  // 429s from the concurrency limiter
	TimedOut  int64 `json:"timed_out"` // 503s from the request deadline
	Status2xx int64 `json:"status_2xx"`
	Status4xx int64 `json:"status_4xx"`
	Status5xx int64 `json:"status_5xx"`
	Uploads   int64 `json:"uploads"`        // successfully stored upload batches
	Replays   int64 `json:"upload_replays"` // idempotent batch replays
	Queries   int64 `json:"queries"`

	// SamplesAccepted/SamplesQuarantined count individual samples
	// through the trust layer (a batch can contribute to both).
	SamplesAccepted    int64 `json:"samples_accepted"`
	SamplesQuarantined int64 `json:"samples_quarantined"`

	// TaskPool is the task-pool view: queued/leased/completed/dead
	// gauges plus cumulative lease-lifecycle counters. Filled from the
	// pool at snapshot time, not maintained by the middleware.
	TaskPool taskpool.Stats `json:"task_pool"`

	// Quarantine gauges and per-uploader reputation, filled at snapshot
	// time from the trust layer.
	Quarantine QuarantineStats       `json:"quarantine"`
	Reputation map[string]Reputation `json:"reputation,omitempty"`

	// Suggest is the suggestion-service view: request/cache counters and
	// fit counts, filled from the service at snapshot time.
	Suggest suggest.Stats `json:"suggest"`
}

// batchEntry is one remembered upload batch: the first request to claim
// a (user, batch id) pair processes it and publishes the outcome here;
// concurrent or later duplicates wait on done and replay the outcome.
type batchEntry struct {
	done    chan struct{}
	status  int
	payload interface{}
}

// Server is the shared-database HTTP server. Construct with NewServer
// or NewServerWith and mount via ServeHTTP (it is an http.Handler).
type Server struct {
	store   *historydb.Store
	tasks   *taskpool.Pool
	handler http.Handler
	cfg     Config
	sem     chan struct{}
	metrics *serverMetrics
	slog    *slog.Logger
	suggest *suggest.Service

	// API-key index: auth is an O(1) map lookup instead of a scan of
	// the users collection on every authenticated request.
	idxMu     sync.RWMutex
	keyToUser map[string]string
	usernames map[string]bool

	// Idempotency cache for upload batches, FIFO-evicted.
	batchMu    sync.Mutex
	batches    map[string]*batchEntry
	batchOrder []string

	// Trust layer: per-problem validation policies, quarantine gauges,
	// uploader reputation, and the release serialization lock.
	policies   policyStore
	qCounters  quarantineCounters
	reputation *reputationStore
	releaseMu  sync.Mutex
}

// NewServer returns a server with an empty store and default Config.
func NewServer() *Server { return NewServerWith(Config{}) }

// NewServerWith returns a server with an empty store and the given
// concurrency/overload configuration.
func NewServerWith(cfg Config) *Server {
	s := &Server{
		store:      historydb.NewStore(),
		tasks:      taskpool.New(taskpool.Config{LeaseTTL: cfg.TaskLeaseTTL, MaxAttempts: cfg.TaskMaxAttempts}),
		cfg:        cfg,
		sem:        make(chan struct{}, cfg.maxInFlight()),
		keyToUser:  make(map[string]string),
		usernames:  make(map[string]bool),
		batches:    make(map[string]*batchEntry),
		reputation: newReputationStore(),
		metrics:    newServerMetrics(cfg.Registry),
		slog:       obs.Or(cfg.Slog),
	}
	// Every read of these two collections pins the problem name, so they
	// are partitioned by it: a request walks its own problem's documents
	// and none of the others'.
	s.funcEvals().IndexBy(problemField)
	s.models().IndexBy(problemField)
	s.registerDerivedMetrics()
	s.suggest = suggest.New(storeSource{s}, suggest.Config{
		RefitEvery: cfg.SuggestRefitEvery,
		MaxStale:   cfg.SuggestMaxStale,
		Seed:       cfg.SuggestSeed,
		Registry:   s.metrics.reg,
		Logger:     s.slog,
	})
	mux := http.NewServeMux()
	for _, e := range Endpoints() {
		mux.HandleFunc(e.Path, e.Guard(s.auth(e)))
	}
	mux.Handle("/metrics", s.metrics.reg.Handler())
	s.handler = s.trace(s.observe(s.limit(s.withDeadline(mux))))
	return s
}

// Registry exposes the server's metrics registry (for daemon wiring:
// cmd/crowdserver co-registers process-level families and serves the
// same registry on its -debug-addr listener).
func (s *Server) Registry() *obs.Registry { return s.metrics.reg }

// Store exposes the underlying document store (for persistence wiring
// in cmd/crowdserver).
func (s *Server) Store() *historydb.Store { return s.store }

// Metrics returns a snapshot of the request counters and task-pool
// gauges.
func (s *Server) Metrics() MetricsSnapshot {
	m := s.metrics.snapshot()
	m.TaskPool = s.tasks.Stats()
	m.Quarantine = s.qCounters.snapshot()
	m.Reputation = s.reputation.snapshot()
	m.Suggest = s.suggest.Stats()
	return m
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// NotifyProblemAppend tells the suggest service that n new samples for
// problem entered the store outside the normal upload path — a
// replicated-log apply on a follower replica, or an operator import —
// so incremental surrogates pick them up on their next refresh.
func (s *Server) NotifyProblemAppend(problem string, n int) {
	if problem == "" || n <= 0 {
		return
	}
	s.suggest.NotifyAppend(problem, n)
}

func (s *Server) users() *historydb.Collection     { return s.store.Collection("users") }
func (s *Server) funcEvals() *historydb.Collection { return s.store.Collection("func_evals") }

// problemField is the document field func_evals and surrogate_models
// are partitioned by.
const problemField = "tuning_problem_name"

// statusRecorder captures the response status and size for logging and
// metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += n
	return n, err
}

// trace is the outermost middleware: it adopts a valid incoming
// X-Trace-ID (so one tuning run's uploads, queries and task operations
// share a trace across client retries), generates a fresh ID otherwise,
// installs it on the request context, and echoes it on the response so
// callers can correlate their logs with the server's.
func (s *Server) trace(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(obs.TraceHeader)
		if !obs.ValidTraceID(id) {
			id = obs.NewTraceID()
		}
		w.Header().Set(obs.TraceHeader, id)
		next.ServeHTTP(w, r.WithContext(obs.WithTrace(r.Context(), id)))
	})
}

// observe sits inside trace: request counters, the latency histogram
// and access logging for every request, including limiter rejections.
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		dur := time.Since(start)
		s.metrics.observeStatus(rec.status, dur.Seconds())
		s.slog.InfoContext(r.Context(), "request",
			"method", r.Method, "path", r.URL.Path, "status", rec.status,
			"bytes", rec.bytes, "dur", dur.Round(time.Microsecond))
	})
}

// limit is the bounded-concurrency middleware: at most MaxInFlight
// requests run at once; the rest are shed with 429 so overload degrades
// into fast rejections instead of pile-ups.
func (s *Server) limit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			s.metrics.inFlight.Inc()
			defer func() {
				<-s.sem
				s.metrics.inFlight.Dec()
			}()
			next.ServeHTTP(w, r)
		default:
			w.Header().Set("Retry-After", "1")
			WriteErr(w, http.StatusTooManyRequests, "", "server overloaded, retry later")
		}
	})
}

// withDeadline installs the per-request deadline on the request context.
func (s *Server) withDeadline(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.requestTimeout())
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// WriteJSON and WriteErr are the API's reply encoders on every tier. An
// error body is a message plus an optional machine-readable code.
func WriteJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func WriteErr(w http.ResponseWriter, status int, code, format string, args ...interface{}) {
	WriteJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...), Code: code})
}

// serveFunc serves one row of Endpoints on a server; user is the
// authenticated caller ("" on rows without Auth). Handlers themselves
// are functions from a decoded request to (status, payload): with and
// bodiless put them on the wire, so decoding and encoding happen once.
type serveFunc func(s *Server, w http.ResponseWriter, r *http.Request, user string)

// with decodes the body as a Req for h, answering 400 (413 past the
// body cap) itself when it cannot.
func with[Req any](h func(*Server, context.Context, string, *Req) (int, interface{})) serveFunc {
	return func(s *Server, w http.ResponseWriter, r *http.Request, user string) {
		var req Req
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			WriteErr(w, BodyErrStatus(err), "", "bad request body: %v", err)
			return
		}
		status, payload := h(s, r.Context(), user, &req)
		WriteJSON(w, status, payload)
	}
}

// bodiless serves a row that reads no request body.
func bodiless(h func(*Server, context.Context, string) (int, interface{})) serveFunc {
	return func(s *Server, w http.ResponseWriter, r *http.Request, user string) {
		status, payload := h(s, r.Context(), user)
		WriteJSON(w, status, payload)
	}
}

// fail is a handler's error reply.
func fail(status int, format string, args ...interface{}) (int, interface{}) {
	return status, errorResponse{Error: fmt.Sprintf(format, args...)}
}

// storeFail maps store/scan failures to a reply: an expired request
// deadline becomes 503 (the client may retry), anything else 500.
func storeFail(err error) (int, interface{}) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return fail(http.StatusServiceUnavailable, "request deadline exceeded")
	}
	return fail(http.StatusInternalServerError, "store error: %v", err)
}

// NewAPIKey generates the paper's default API-key form: a random string
// of 20 hex characters/digits.
func NewAPIKey() string {
	var b [10]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failure is unrecoverable
	}
	return hex.EncodeToString(b[:])
}

func (s *Server) handleHealthz(context.Context, string) (int, interface{}) {
	return http.StatusOK, map[string]string{"status": "ok"}
}

func (s *Server) handleStats(context.Context, string) (int, interface{}) {
	return http.StatusOK, s.Metrics()
}

// handleRegister creates a user and returns a fresh API key. Usernames
// are unique; uniqueness and the key index are maintained under one
// write lock so concurrent registrations cannot race.
func (s *Server) handleRegister(_ context.Context, _ string, req *RegisterRequest) (int, interface{}) {
	req.Username = strings.TrimSpace(req.Username)
	if req.Username == "" {
		return fail(http.StatusBadRequest, "username required")
	}
	req.APIKey = strings.TrimSpace(req.APIKey)
	if req.APIKey != "" && (len(req.APIKey) < 8 || len(req.APIKey) > 128) {
		return fail(http.StatusBadRequest, "preset api key must be 8..128 characters")
	}
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if s.usernames[req.Username] {
		// A replayed registration with the same preset key is idempotent
		// (the coordinator fans one registration out to every shard and
		// may retry); anything else is a genuine conflict.
		if req.APIKey != "" && s.keyToUser[req.APIKey] == req.Username {
			return http.StatusOK, RegisterResponse{APIKey: req.APIKey}
		}
		return fail(http.StatusConflict, "username %q taken", req.Username)
	}
	key := req.APIKey
	if key == "" {
		key = NewAPIKey()
	} else if owner, ok := s.keyToUser[key]; ok && owner != req.Username {
		return fail(http.StatusConflict, "api key already in use")
	}
	_, err := s.users().Insert(historydb.Document{
		"username": req.Username,
		"email":    req.Email,
		"api_keys": []interface{}{key},
	})
	if err != nil {
		return fail(http.StatusInternalServerError, "store error: %v", err)
	}
	s.usernames[req.Username] = true
	s.keyToUser[key] = req.Username
	return http.StatusOK, RegisterResponse{APIKey: key}
}

// RebuildUserIndex rebuilds the in-memory API-key index from the users
// collection. Call it after loading persisted collections into the
// store (cmd/crowdserver does).
func (s *Server) RebuildUserIndex() error {
	docs, err := s.users().Find(nil)
	if err != nil {
		return err
	}
	keyToUser := make(map[string]string)
	usernames := make(map[string]bool)
	for _, d := range docs {
		name, _ := d["username"].(string)
		if name == "" {
			continue
		}
		usernames[name] = true
		keys, _ := d["api_keys"].([]interface{})
		for _, k := range keys {
			if ks, ok := k.(string); ok && ks != "" {
				keyToUser[ks] = name
			}
		}
	}
	s.idxMu.Lock()
	s.keyToUser = keyToUser
	s.usernames = usernames
	s.idxMu.Unlock()
	return nil
}

// auth resolves the caller for a row's handler: on rows that require
// it, the username behind the request's API key (401 without one).
func (s *Server) auth(e Endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		user := ""
		if e.Auth {
			key := r.Header.Get("X-Api-Key")
			if key == "" {
				WriteErr(w, http.StatusUnauthorized, "", "missing X-Api-Key header")
				return
			}
			s.idxMu.RLock()
			name, ok := s.keyToUser[key]
			s.idxMu.RUnlock()
			if !ok {
				WriteErr(w, http.StatusUnauthorized, "", "invalid API key")
				return
			}
			user = name
		}
		e.serve(s, w, r, user)
	}
}

// once applies an upload batch at most once per (kind, user, batch id):
// the first request to claim the id runs apply and publishes its outcome;
// concurrent or later duplicates block until it has and replay that
// outcome. An empty id opts out: the request is just processed.
func (s *Server) once(kind, user, batchID string, apply func() (int, interface{})) (int, interface{}) {
	if batchID == "" {
		return apply()
	}
	key := kind + "\x00" + user + "\x00" + batchID
	s.batchMu.Lock()
	if e, ok := s.batches[key]; ok {
		s.batchMu.Unlock()
		<-e.done
		s.metrics.replays.Inc()
		return e.status, e.payload
	}
	e := &batchEntry{done: make(chan struct{})}
	s.batches[key] = e
	s.batchOrder = append(s.batchOrder, key)
	for len(s.batchOrder) > maxRememberedBatches {
		oldest := s.batches[s.batchOrder[0]]
		finished := false
		select {
		case <-oldest.done:
			finished = true
		default:
		}
		if !finished {
			break // never evict an in-progress batch
		}
		delete(s.batches, s.batchOrder[0])
		s.batchOrder = s.batchOrder[1:]
	}
	s.batchMu.Unlock()
	e.status, e.payload = apply()
	close(e.done)
	return e.status, e.payload
}

// handleUpload stores function evaluations under the caller's identity.
// A batch either fully validates and is applied atomically, or nothing
// is stored; batches carrying a batch_id are applied at most once per
// user no matter how often the client retries.
func (s *Server) handleUpload(_ context.Context, user string, req *UploadRequest) (int, interface{}) {
	return s.once("func_eval", user, req.BatchID, func() (int, interface{}) { return s.applyUpload(req, user) })
}

// applyUpload is the trust boundary for crowd data. Structural defects
// (empty batch, missing problem name, bad accessibility, duplicate ids)
// reject the whole batch with 400 — nothing sensible can be stored.
// Samples that are structurally fine but fail the content checks (space
// membership, finite/plausible output) are routed to quarantine
// individually: the rest of the batch is stored, the response reports
// which positions were held and why, and the uploader's reputation
// records both outcomes.
func (s *Server) applyUpload(req *UploadRequest, user string) (int, interface{}) {
	if len(req.FuncEvals) == 0 {
		return fail(http.StatusBadRequest, "no function evaluations in upload")
	}
	if dup := checkDuplicateIDs(req.FuncEvals); dup != nil {
		return http.StatusBadRequest, errorResponse{Error: dup.Error(), Code: "duplicate_ids"}
	}
	for i := range req.FuncEvals {
		fe := &req.FuncEvals[i]
		if err := fe.Validate(); err != nil {
			return fail(http.StatusBadRequest, "sample %d: %v", i, err)
		}
		fe.Owner = user
		if fe.Accessibility == "" {
			fe.Accessibility = "public"
		}
		fe.Machine = fe.Machine.Normalize()
	}

	var (
		docs        []historydb.Document
		accepted    []*FuncEval
		quarantined []QuarantineReport
	)
	for i := range req.FuncEvals {
		fe := &req.FuncEvals[i]
		policy, hasPolicy := s.policies.get(fe.TuningProblemName)
		if reason, detail := validateSample(fe, policy, hasPolicy); reason != "" {
			if err := s.quarantineSample(fe, user, reason, detail); err != nil {
				return fail(http.StatusInternalServerError, "store error: %v", err)
			}
			quarantined = append(quarantined, QuarantineReport{Index: i, Reason: reason, Detail: detail})
			continue
		}
		doc, err := toDocument(fe)
		if err != nil {
			return fail(http.StatusBadRequest, "sample %d: %v", i, err)
		}
		docs = append(docs, doc)
		accepted = append(accepted, fe)
	}
	var ids []string
	if len(docs) > 0 {
		// Consensus runs before the insert so a sample is compared
		// against its peers, not against itself or its batch siblings.
		for _, fe := range accepted {
			s.consensusCheck(fe, user)
		}
		var err error
		ids, err = s.funcEvals().InsertMany(docs)
		if err != nil {
			return fail(http.StatusInternalServerError, "store error: %v", err)
		}
		for range accepted {
			s.reputation.recordAccepted(user)
		}
		// Advance the suggestion service's per-problem history generation
		// so cached surrogates learn the new samples (incrementally when
		// the lag is small, via full refit otherwise).
		perProblem := make(map[string]int)
		for _, fe := range accepted {
			perProblem[fe.TuningProblemName]++
		}
		for problem, n := range perProblem {
			s.suggest.NotifyAppend(problem, n)
		}
	}
	s.metrics.uploads.Inc()
	s.metrics.samplesAccepted.Add(int64(len(ids)))
	s.metrics.samplesQuarantined.Add(int64(len(quarantined)))
	return http.StatusOK, UploadResponse{IDs: ids, Quarantined: quarantined}
}

// handleQuery returns samples matching the problem name, environment
// filter and optional parameter query, restricted to what the caller
// may see.
func (s *Server) handleQuery(ctx context.Context, user string, req *QueryRequest) (int, interface{}) {
	if req.TuningProblemName == "" {
		return fail(http.StatusBadRequest, "tuning_problem_name required")
	}
	var paramQuery historydb.Query
	if len(req.ParamQuery) > 0 {
		q, err := historydb.UnmarshalQuery(req.ParamQuery)
		if err != nil {
			return fail(http.StatusBadRequest, "bad param_query: %v", err)
		}
		paramQuery = q
	}
	q := historydb.Eq(problemField, req.TuningProblemName)
	if paramQuery != nil {
		q = historydb.And(q, paramQuery)
	}
	// The filters that read the stored document (problem, param_query,
	// visibility) run first; only survivors pay fromDocument. Every
	// filter is a pure predicate of one sample, so the order changes
	// what a query costs, not which samples it returns or their order.
	resp := QueryResponse{}
	scanned, err := s.funcEvals().Scan(ctx, q, func(d historydb.Document) bool {
		if !docVisible(d, user) {
			return true
		}
		fe, err := fromDocument[FuncEval](d)
		// Malformed documents are skipped rather than failing the query;
		// canSee on the decoded sample stays the authority on access.
		if err != nil || !canSee(fe, user) || !matchesConfiguration(fe, req.Configuration) {
			return true
		}
		// Private metadata is stripped for non-owners.
		if fe.Owner != user {
			fe.SharedWith = nil
		}
		resp.FuncEvals = append(resp.FuncEvals, *fe)
		return req.Limit <= 0 || len(resp.FuncEvals) < req.Limit
	})
	s.metrics.scanned("query", scanned)
	if err != nil {
		return storeFail(err)
	}
	s.metrics.queries.Inc()
	return http.StatusOK, resp
}

// handleProblems lists problem names with at least one sample visible
// to the caller: per partition of func_evals, a scan that stops at the
// first visible sample.
func (s *Server) handleProblems(ctx context.Context, user string) (int, interface{}) {
	resp := ProblemsResponse{}
	for _, v := range s.funcEvals().IndexValues() {
		name, ok := v.(string)
		if !ok {
			continue
		}
		visible := false
		scanned, err := s.funcEvals().Scan(ctx, historydb.Eq(problemField, name), func(d historydb.Document) bool {
			visible = docVisible(d, user)
			return !visible
		})
		s.metrics.scanned("problems", scanned)
		if err != nil {
			return storeFail(err)
		}
		if visible {
			resp.Problems = append(resp.Problems, name)
		}
	}
	sort.Strings(resp.Problems)
	return http.StatusOK, resp
}

// field reads one typed field straight off a stored document. Absent
// and null read as the zero value, the way json.Unmarshal leaves them;
// a value of any other type is malformed (ok false), and the read paths
// skip such a document as they skip one fromDocument cannot decode.
func field[T any](d historydb.Document, key string) (v T, ok bool) {
	raw := d[key]
	if raw == nil {
		return v, true
	}
	v, ok = raw.(T)
	return v, ok
}

// docVisible is canSee read off the stored document, for the paths that
// need no other part of the sample.
func docVisible(d historydb.Document, user string) bool {
	access, ok1 := field[string](d, "accessibility")
	owner, ok2 := field[string](d, "owner")
	shared, ok3 := field[[]interface{}](d, "shared_with")
	if !ok1 || !ok2 || !ok3 {
		return false
	}
	switch access {
	case "public", "":
		return true
	case "private":
		return owner == user
	case "shared":
		if owner == user {
			return true
		}
		for _, u := range shared {
			if u == user {
				return true
			}
		}
	}
	return false
}

// measurement is what the model-facing read paths (consensus scoring,
// surrogate history) take from a stored sample.
type measurement struct {
	owner        string
	failed       bool
	task, tuning map[string]interface{}
	y            float64
}

func readMeasurement(d historydb.Document) (m measurement, ok bool) {
	var ok1, ok2, ok3, ok4, ok5 bool
	m.owner, ok1 = field[string](d, "owner")
	m.failed, ok2 = field[bool](d, "failed")
	m.task, ok3 = field[map[string]interface{}](d, "task_parameters")
	m.tuning, ok4 = field[map[string]interface{}](d, "tuning_parameters")
	m.y, ok5 = field[float64](d, "evaluation_result")
	return m, ok1 && ok2 && ok3 && ok4 && ok5
}

// canSee implements the access-control levels of Section III.
func canSee(fe *FuncEval, user string) bool {
	switch fe.Accessibility {
	case "public", "":
		return true
	case "private":
		return fe.Owner == user
	case "shared":
		if fe.Owner == user {
			return true
		}
		for _, u := range fe.SharedWith {
			if u == user {
				return true
			}
		}
	}
	return false
}

// matchesConfiguration applies the meta description's environment
// filters with tag normalization and version ranges.
func matchesConfiguration(fe *FuncEval, cfg ConfigurationSpace) bool {
	if len(cfg.MachineConfigurations) > 0 {
		ok := false
		m := fe.Machine.Normalize()
		for _, want := range cfg.MachineConfigurations {
			w := want.Normalize()
			if w.MachineName != "" && w.MachineName != m.MachineName {
				continue
			}
			if w.Partition != "" && w.Partition != m.Partition {
				continue
			}
			if w.Nodes > 0 && w.Nodes != m.Nodes {
				continue
			}
			if w.CoresPerNode > 0 && w.CoresPerNode != m.CoresPerNode {
				continue
			}
			ok = true
			break
		}
		if !ok {
			return false
		}
	}
	for _, vr := range cfg.SoftwareConfigurations {
		if !vr.Matches(fe.Software) {
			return false
		}
	}
	if len(cfg.UserConfigurations) > 0 {
		ok := false
		for _, u := range cfg.UserConfigurations {
			if u == fe.Owner {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// toDocument converts a wire value (a FuncEval, a QuarantinedSample, a
// SurrogateModelDoc) to a store document via JSON.
func toDocument(v interface{}) (historydb.Document, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var d historydb.Document
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, err
	}
	delete(d, "_id") // assigned by the store
	return d, nil
}

// fromDocument converts a store document back to its wire type.
func fromDocument[T any](d historydb.Document) (*T, error) {
	b, err := json.Marshal(d)
	if err != nil {
		return nil, err
	}
	var v T
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, err
	}
	return &v, nil
}
