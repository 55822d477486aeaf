package cluster

// The coordinator's proxy for the public API: each row of
// crowd.Endpoints resolved into a handler that plans which shards a
// request goes to, sends it, and turns their replies into the client's.
// Task and quarantine ids gain a "shard/" prefix on the way out so later
// by-id requests route without a lookup.

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strings"

	"gptunecrowd/internal/crowd"
)

// readBody reads a request body Guard has already capped. An empty one
// forwards as "{}": every shard request is a POST with a JSON body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		crowd.WriteErr(w, crowd.BodyErrStatus(err), "", "read body: %v", err)
		return nil, false
	}
	if len(bytes.TrimSpace(body)) == 0 {
		body = []byte("{}")
	}
	return body, true
}

func badBody(w http.ResponseWriter, err error) {
	crowd.WriteErr(w, http.StatusBadRequest, "", "bad request body: %v", err)
}

func routeFailed(w http.ResponseWriter, err error) {
	crowd.WriteErr(w, http.StatusBadGateway, "route_failed", "%v", err)
}

// leg is one shard's share of a proxied request: the body it is sent
// and, once it answered 2xx (as merge sees it), the body it replied.
type leg struct {
	shard string
	body  []byte
	// indices are the positions a split leg's items held in the client's
	// batch.
	indices []int
}

// hooks is what stays per endpoint once its row's Route has planned the
// legs; a row leaves the ones that do not apply nil.
type hooks struct {
	// prepare rewrites the request before an every-shard fan-out.
	prepare func(body []byte) ([]byte, error)
	// items names the request field holding the batch a split divides.
	items string
	// reply rewrites one shard's reply into the client's. A nil result
	// moves on to the next leg: the reply had nothing to rewrite.
	reply func(shard string, body []byte) (interface{}, error)
	// merge folds every leg's reply into the client's; req is the
	// client's request. Without it the last reply is relayed.
	merge func(req []byte, parts []leg) (interface{}, error)
	// self serves a row the coordinator answers from its own view.
	self func(*Coordinator, http.ResponseWriter, *http.Request)
}

var endpointHooks = map[string]hooks{
	crowd.PathRegister:        {prepare: presetKey},
	crowd.PathFuncEvalUpload:  {items: "func_evals", merge: mergeUploads},
	crowd.PathSurrogateUpload: {items: "models", merge: mergeUploads},
	crowd.PathProblems:        {merge: unionProblems},
	crowd.PathTaskSubmit:      {reply: prefixSubmitted},
	crowd.PathTaskLease:       {reply: prefixLeased},
	crowd.PathTaskList:        {merge: mergeTasks},
	crowd.PathQuarantine:      {merge: mergeQuarantine},
	crowd.PathStats:           {self: (*Coordinator).handleStats},
	crowd.PathHealthz:         {self: (*Coordinator).handleHealthz},
}

// proxy resolves one row of the API table into its handler. Route plans
// the legs — forward (one shard, by problem or by id), split (one per
// owning shard), gather (every shard) or first-non-empty (every shard,
// round-robin, until a reply rewrites) — each goes to the shard's
// leader, and the row's hooks turn the replies into the client's.
func (c *Coordinator) proxy(e crowd.Endpoint) http.HandlerFunc {
	h := endpointHooks[e.Path]
	if e.Route == crowd.RouteSelf {
		return func(w http.ResponseWriter, r *http.Request) { h.self(c, w, r) }
	}
	return func(w http.ResponseWriter, r *http.Request) {
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		legs, ok := c.plan(w, e.Route, h, body)
		if !ok {
			return
		}
		fanout := len(legs) > 1 || e.Route == crowd.RouteEveryShard || e.Route == crowd.RouteFirstNonEmpty
		if fanout {
			c.metrics.fanouts.Inc()
		} else {
			c.metrics.routed.Inc()
		}
		// A batch with a single owner was forwarded untouched; so is
		// its reply.
		merge := fanout && h.merge != nil
		var last *shardReply
		var parts []leg
		for _, l := range legs {
			rep, err := c.toLeader(r, l.shard, e.Path, l.body)
			if err != nil {
				routeFailed(w, err)
				return
			}
			last = rep
			if rep.status < 200 || rep.status > 299 {
				merge = false // the shard's own error is the answer
				break
			}
			if h.reply != nil {
				out, err := h.reply(l.shard, rep.body)
				if err != nil {
					routeFailed(w, fmt.Errorf("decode shard %s response: %v", l.shard, err))
					return
				}
				if out != nil {
					crowd.WriteJSON(w, http.StatusOK, out)
					return
				}
			}
			if merge {
				l.body = rep.body
				parts = append(parts, l)
			}
		}
		switch {
		case merge:
			out, err := h.merge(body, parts)
			if err != nil {
				routeFailed(w, err)
				return
			}
			crowd.WriteJSON(w, http.StatusOK, out)
		case last != nil:
			relay(w, last)
		default: // no shards yet
			crowd.WriteJSON(w, http.StatusOK, struct{}{})
		}
	}
}

// plan names the shards a request goes to and what each is sent. It
// answers the client itself (and reports false) when the request does
// not say.
func (c *Coordinator) plan(w http.ResponseWriter, route crowd.Route, h hooks, body []byte) ([]leg, bool) {
	switch route {
	case crowd.RouteByProblem:
		problem, err := problemOf(body)
		if err != nil {
			badBody(w, err)
			return nil, false
		}
		return []leg{{shard: c.ownerOf(problem), body: body}}, true
	case crowd.RouteByID:
		return c.byShardID(w, body)
	case crowd.RouteSplit:
		return c.splitByOwner(w, h.items, body)
	}
	if h.prepare != nil {
		var err error
		if body, err = h.prepare(body); err != nil {
			badBody(w, err)
			return nil, false
		}
	}
	ids := c.shardIDs()
	start := 0
	if route == crowd.RouteFirstNonEmpty && len(ids) > 0 {
		start = int(c.rr.Add(1) % uint64(len(ids)))
	}
	legs := make([]leg, len(ids))
	for i := range ids {
		legs[i] = leg{shard: ids[(start+i)%len(ids)], body: body}
	}
	return legs, true
}

// problemOf reads the tuning problem a request, or one item of a batch,
// hashes on: its tuning_problem_name, or for a task submission its
// spec's, falling back to the app name (the pool's problem-defaulting).
func problemOf(body []byte) (string, error) {
	var probe struct {
		Problem string `json:"tuning_problem_name"`
		Spec    struct {
			Problem string `json:"tuning_problem_name"`
			App     string `json:"app"`
		} `json:"spec"`
	}
	err := json.Unmarshal(body, &probe)
	return cmp.Or(probe.Problem, probe.Spec.Problem, probe.Spec.App), err
}

// byShardID routes by the "shard/" prefix the coordinator stamped on
// the request's id, swapping in the shard-local id.
func (c *Coordinator) byShardID(w http.ResponseWriter, body []byte) ([]leg, bool) {
	var req map[string]json.RawMessage
	var id string
	err := json.Unmarshal(body, &req)
	if err == nil && req["id"] != nil {
		err = json.Unmarshal(req["id"], &id)
	}
	if err != nil {
		badBody(w, err)
		return nil, false
	}
	shard, rest, found := strings.Cut(id, "/")
	if _, known := c.shardInfo(shard); !found || rest == "" || !known {
		crowd.WriteErr(w, http.StatusNotFound, "wrong_shard", "id %q carries no known shard prefix", id)
		return nil, false
	}
	req["id"], _ = json.Marshal(rest) // a string always encodes,
	body, _ = json.Marshal(req)       // as does what was just decoded
	return []leg{{shard: shard, body: body}}, true
}

// splitByOwner groups a batch's items by owning shard. A single owner
// gets the batch untouched (same idempotency id end to end); several
// get their items, in shard order, under a derived id, so a coordinator
// retry of the same client batch replays identically on every shard.
func (c *Coordinator) splitByOwner(w http.ResponseWriter, field string, body []byte) ([]leg, bool) {
	var req map[string]json.RawMessage
	var items []json.RawMessage
	var batchID string
	err := json.Unmarshal(body, &req)
	if err == nil && req[field] != nil {
		err = json.Unmarshal(req[field], &items)
	}
	if err == nil && req["batch_id"] != nil {
		err = json.Unmarshal(req["batch_id"], &batchID)
	}
	groups := make(map[string][]int)
	for i := 0; err == nil && i < len(items); i++ {
		var problem string
		problem, err = problemOf(items[i])
		owner := c.ownerOf(problem)
		groups[owner] = append(groups[owner], i)
	}
	if err != nil {
		badBody(w, err)
		return nil, false
	}
	if len(groups) <= 1 {
		shard := c.ownerOf("")
		for id := range groups {
			shard = id
		}
		return []leg{{shard: shard, body: body}}, true
	}
	legs := make([]leg, 0, len(groups))
	for id, indices := range groups {
		subset := make([]json.RawMessage, len(indices))
		for k, i := range indices {
			subset[k] = items[i]
		}
		req[field], _ = json.Marshal(subset) // raw items re-encode as they came
		if batchID != "" {
			req["batch_id"], _ = json.Marshal(batchID + "-" + id)
		}
		sub, _ := json.Marshal(req)
		legs = append(legs, leg{shard: id, body: sub, indices: indices})
	}
	sort.Slice(legs, func(i, j int) bool { return legs[i].shard < legs[j].shard })
	return legs, true
}

// prefixSubmitted and prefixLeased stamp the shard on a task id on its
// way out, so later by-id requests route without a lookup.
func prefixSubmitted(shard string, body []byte) (interface{}, error) {
	var resp crowd.TaskSubmitResponse
	err := json.Unmarshal(body, &resp)
	resp.ID = shard + "/" + resp.ID
	return resp, err
}

func prefixLeased(shard string, body []byte) (interface{}, error) {
	var resp crowd.TaskLeaseResponse
	if err := json.Unmarshal(body, &resp); err != nil || resp.Task == nil {
		return nil, err
	}
	resp.Task.ID = shard + "/" + resp.Task.ID
	return resp, nil
}

// eachReply decodes every part's reply as a T and hands it to visit.
func eachReply[T any](parts []leg, visit func(part leg, reply T)) error {
	for _, p := range parts {
		var reply T
		if err := json.Unmarshal(p.body, &reply); err != nil {
			return fmt.Errorf("decode shard %s response: %v", p.shard, err)
		}
		visit(p, reply)
	}
	return nil
}

// mergeUploads concatenates assigned ids and maps each quarantine
// report's index from its sub-batch back to the client's batch. A model
// upload's reply is the ids-only subset of a sample upload's, so both
// rows share it.
func mergeUploads(_ []byte, parts []leg) (interface{}, error) {
	var out crowd.UploadResponse
	err := eachReply(parts, func(p leg, r crowd.UploadResponse) {
		out.IDs = append(out.IDs, r.IDs...)
		for _, q := range r.Quarantined {
			if q.Index >= 0 && q.Index < len(p.indices) {
				q.Index = p.indices[q.Index]
			}
			out.Quarantined = append(out.Quarantined, q)
		}
	})
	return out, err
}

// unionProblems is the sorted union of every shard's visible problems.
func unionProblems(_ []byte, parts []leg) (interface{}, error) {
	problems := []string{}
	err := eachReply(parts, func(_ leg, r crowd.ProblemsResponse) {
		problems = append(problems, r.Problems...)
	})
	sort.Strings(problems)
	return crowd.ProblemsResponse{Problems: slices.Compact(problems)}, err
}

// mergeTasks prefixes task ids with their shard and sorts by id.
func mergeTasks(_ []byte, parts []leg) (interface{}, error) {
	var out crowd.TaskListResponse
	err := eachReply(parts, func(p leg, r crowd.TaskListResponse) {
		for i := range r.Tasks {
			r.Tasks[i].ID = p.shard + "/" + r.Tasks[i].ID
		}
		out.Tasks = append(out.Tasks, r.Tasks...)
	})
	sort.Slice(out.Tasks, func(i, j int) bool { return out.Tasks[i].ID < out.Tasks[j].ID })
	return out, err
}

// mergeQuarantine prefixes quarantine ids with their shard (so release
// requests route back) and applies the request's limit to the merged
// list: each shard applied it only to its own.
func mergeQuarantine(req []byte, parts []leg) (interface{}, error) {
	var want crowd.QuarantineListRequest
	if err := json.Unmarshal(req, &want); err != nil {
		return nil, err
	}
	var out crowd.QuarantineListResponse
	err := eachReply(parts, func(p leg, r crowd.QuarantineListResponse) {
		for i := range r.Items {
			r.Items[i].ID = p.shard + "/" + r.Items[i].ID
		}
		out.Items = append(out.Items, r.Items...)
	})
	if want.Limit > 0 && len(out.Items) > want.Limit {
		out.Items = out.Items[:want.Limit]
	}
	return out, err
}

// presetKey gives a registration one cluster-wide key before it fans
// out, so the credential works wherever the user's problems hash; every
// shard echoes it, and the last echo is the client's reply.
func presetKey(body []byte) ([]byte, error) {
	var req crowd.RegisterRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	if req.APIKey == "" {
		req.APIKey = crowd.NewAPIKey()
	}
	return json.Marshal(req)
}
