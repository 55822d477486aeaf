package crowd

// The public /api/v1 surface, declared once. Every tier reads this
// table instead of restating it: the crowd server mounts its handlers
// from the rows, a cluster node's role gate reads Class, and the
// coordinator reads Class and Route to pick how it proxies. The
// node-internal /api/v1/cluster/* and /api/v1/readyz are not public and
// stay out of it.

import (
	"errors"
	"net/http"
	"slices"
	"strings"
)

// The public paths. Clients, servers and routers all name them here.
const (
	PathRegister          = "/api/v1/register"
	PathFuncEvalUpload    = "/api/v1/func_eval/upload"
	PathFuncEvalQuery     = "/api/v1/func_eval/query"
	PathProblems          = "/api/v1/problems"
	PathSurrogateUpload   = "/api/v1/surrogate/upload"
	PathSurrogateQuery    = "/api/v1/surrogate/query"
	PathSuggest           = "/api/v1/suggest"
	PathTaskSubmit        = "/api/v1/tasks/submit"
	PathTaskLease         = "/api/v1/tasks/lease"
	PathTaskHeartbeat     = "/api/v1/tasks/heartbeat"
	PathTaskComplete      = "/api/v1/tasks/complete"
	PathTaskFail          = "/api/v1/tasks/fail"
	PathTaskList          = "/api/v1/tasks/list"
	PathQuarantine        = "/api/v1/quarantine"
	PathQuarantineRelease = "/api/v1/quarantine/release"
	PathStats             = "/api/v1/stats"
	PathHealthz           = "/api/v1/healthz"
)

// MaxBodyBytes caps every request body the API reads, and every shard
// reply a coordinator reads back.
const MaxBodyBytes = 1 << 26

// Class says what a request does to a shard's replicated state, which
// decides which replica may serve it.
type Class string

const (
	// ClassWrite mutates replicated state: leader only, acknowledged
	// behind the commit barrier. tasks/lease and tasks/complete mutate
	// too (lease tokens, result samples), so workers talk to leaders.
	ClassWrite Class = "write"
	// ClassFreshRead is follower-servable while the replica is within
	// its staleness bound; a stale replica answers 412.
	ClassFreshRead Class = "fresh-read"
	// ClassLocal is diagnostics about the answering process itself.
	ClassLocal Class = "local"
)

// Route says how a coordinator finds the shard(s) of a request.
type Route string

const (
	// RouteByProblem hashes the request's tuning problem onto one shard.
	RouteByProblem Route = "by-problem"
	// RouteByID reads the "shard/" prefix the coordinator stamped on the
	// request's id and strips it.
	RouteByID Route = "by-shard-prefixed-id"
	// RouteSplit groups a batch's items by owning shard and merges the
	// per-shard replies.
	RouteSplit Route = "split-by-owner"
	// RouteEveryShard asks every shard and merges the replies.
	RouteEveryShard Route = "every-shard"
	// RouteFirstNonEmpty asks shards in turn until one has something.
	RouteFirstNonEmpty Route = "first-non-empty"
	// RouteSelf is answered from the coordinator's own view.
	RouteSelf Route = "self"
)

// Endpoint is one row of the public API.
type Endpoint struct {
	Path    string
	Methods []string
	// Auth requires a registered X-Api-Key.
	Auth  bool
	Class Class
	Route Route
	// serve is the crowd server's handler for the row.
	serve serveFunc
}

// Endpoints returns the table.
func Endpoints() []Endpoint {
	post := []string{http.MethodPost}
	getOrPost := []string{http.MethodGet, http.MethodPost}
	return []Endpoint{
		{PathRegister, post, false, ClassWrite, RouteEveryShard, with((*Server).handleRegister)},
		{PathFuncEvalUpload, post, true, ClassWrite, RouteSplit, with((*Server).handleUpload)},
		{PathFuncEvalQuery, post, true, ClassFreshRead, RouteByProblem, with((*Server).handleQuery)},
		{PathProblems, getOrPost, true, ClassFreshRead, RouteEveryShard, bodiless((*Server).handleProblems)},
		{PathSurrogateUpload, post, true, ClassWrite, RouteSplit, with((*Server).handleModelUpload)},
		{PathSurrogateQuery, post, true, ClassFreshRead, RouteByProblem, with((*Server).handleModelQuery)},
		{PathSuggest, post, true, ClassFreshRead, RouteByProblem, with((*Server).handleSuggest)},
		{PathTaskSubmit, post, true, ClassWrite, RouteByProblem, with((*Server).handleTaskSubmit)},
		{PathTaskLease, post, true, ClassWrite, RouteFirstNonEmpty, with((*Server).handleTaskLease)},
		{PathTaskHeartbeat, post, true, ClassWrite, RouteByID, with((*Server).handleTaskHeartbeat)},
		{PathTaskComplete, post, true, ClassWrite, RouteByID, with((*Server).handleTaskComplete)},
		{PathTaskFail, post, true, ClassWrite, RouteByID, with((*Server).handleTaskFail)},
		{PathTaskList, post, true, ClassFreshRead, RouteEveryShard, with((*Server).handleTaskList)},
		{PathQuarantine, post, true, ClassFreshRead, RouteEveryShard, with((*Server).handleQuarantineList)},
		{PathQuarantineRelease, post, true, ClassWrite, RouteByID, with((*Server).handleQuarantineRelease)},
		{PathStats, getOrPost, false, ClassLocal, RouteSelf, bodiless((*Server).handleStats)},
		{PathHealthz, getOrPost, false, ClassLocal, RouteSelf, bodiless((*Server).handleHealthz)},
	}
}

// Guard enforces the row's wire preconditions before next runs, the
// same on every tier: a method outside Methods is 405, a body declared
// larger than MaxBodyBytes is 413 before any of it is read, and an
// undeclared one is cut off at the cap (see BodyErrStatus).
func (e Endpoint) Guard(next http.HandlerFunc) http.HandlerFunc {
	required := strings.Join(e.Methods, " or ") + " required"
	return func(w http.ResponseWriter, r *http.Request) {
		if !slices.Contains(e.Methods, r.Method) {
			WriteErr(w, http.StatusMethodNotAllowed, "", "%s", required)
			return
		}
		if r.ContentLength > MaxBodyBytes {
			WriteErr(w, http.StatusRequestEntityTooLarge, "", "request body exceeds %d bytes", MaxBodyBytes)
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
		next(w, r)
	}
}

// BodyErrStatus is the status for a request body that could not be read
// or decoded: 413 when Guard's cap cut it off, 400 otherwise.
func BodyErrStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}
