package crowd

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"gptunecrowd/internal/obs"
	"gptunecrowd/internal/taskpool"
)

// Task-pool wire types. Tasks returned by list/get have their lease
// token redacted: the token is a capability and only the worker that
// holds the lease ever sees it (in the lease response).

// TaskSubmitRequest queues a tuning job.
type TaskSubmitRequest struct {
	Spec taskpool.Spec `json:"spec"`
}

// TaskSubmitResponse returns the queued task's id.
type TaskSubmitResponse struct {
	ID string `json:"id"`
}

// TaskLeaseRequest asks for the next runnable task matching the
// worker's machine tags.
type TaskLeaseRequest struct {
	Worker  string                     `json:"worker"`
	Machine taskpool.MachineConstraint `json:"machine,omitempty"`
}

// TaskLeaseResponse carries the leased task, or a nil Task when the
// pool has nothing leasable right now.
type TaskLeaseResponse struct {
	Task *taskpool.Task `json:"task,omitempty"`
	// LeaseTTLSeconds tells the worker how often to heartbeat.
	LeaseTTLSeconds float64 `json:"lease_ttl_seconds"`
}

// TaskHeartbeatRequest renews a lease.
type TaskHeartbeatRequest struct {
	ID         string `json:"id"`
	LeaseToken string `json:"lease_token"`
}

// TaskHeartbeatResponse returns the renewed expiry.
type TaskHeartbeatResponse struct {
	LeaseExpires time.Time `json:"lease_expires"`
}

// TaskCompleteRequest reports a finished task.
type TaskCompleteRequest struct {
	ID         string          `json:"id"`
	LeaseToken string          `json:"lease_token"`
	Result     taskpool.Result `json:"result"`
}

// TaskCompleteResponse acknowledges a completion.
type TaskCompleteResponse struct {
	OK bool `json:"ok"`
}

// TaskFailRequest reports that the worker could not finish; a non-nil
// Checkpoint hands partial progress to the next lease.
type TaskFailRequest struct {
	ID         string          `json:"id"`
	LeaseToken string          `json:"lease_token"`
	Reason     string          `json:"reason,omitempty"`
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
}

// TaskFailResponse says whether the task was requeued or dead-lettered.
type TaskFailResponse struct {
	State taskpool.State `json:"state"`
}

// TaskListRequest filters the task listing by state ("" = all).
type TaskListRequest struct {
	State taskpool.State `json:"state,omitempty"`
}

// TaskListResponse lists tasks (lease tokens redacted), ordered by id.
type TaskListResponse struct {
	Tasks []taskpool.Task `json:"tasks"`
}

// TaskPool exposes the server's task pool (for persistence wiring and
// the background expiry sweeper in cmd/crowdserver).
func (s *Server) TaskPool() *taskpool.Pool { return s.tasks }

// taskFail maps taskpool sentinel errors onto HTTP statuses: unknown
// id → 404, stale lease token → 409 Conflict (the client must not
// retry — the lease moved on), bad input → 400.
func taskFail(err error) (int, interface{}) {
	switch {
	case errors.Is(err, taskpool.ErrNotFound):
		return fail(http.StatusNotFound, "%v", err)
	case errors.Is(err, taskpool.ErrLeaseLost):
		return fail(http.StatusConflict, "%v", err)
	}
	return fail(http.StatusBadRequest, "%v", err)
}

func (s *Server) handleTaskSubmit(ctx context.Context, user string, req *TaskSubmitRequest) (int, interface{}) {
	// Stamp the submitting request's trace onto the spec (unless the
	// submitter pinned one), so workers join the same trace.
	if req.Spec.TraceID == "" {
		req.Spec.TraceID = obs.TraceID(ctx)
	}
	id, err := s.tasks.Submit(user, req.Spec)
	if err != nil {
		return taskFail(err)
	}
	return http.StatusOK, TaskSubmitResponse{ID: id}
}

func (s *Server) handleTaskLease(_ context.Context, user string, req *TaskLeaseRequest) (int, interface{}) {
	worker := req.Worker
	if worker == "" {
		worker = user
	}
	t, err := s.tasks.Lease(worker, req.Machine)
	if err != nil {
		return taskFail(err)
	}
	return http.StatusOK, TaskLeaseResponse{Task: t, LeaseTTLSeconds: s.tasks.LeaseTTL().Seconds()}
}

func (s *Server) handleTaskHeartbeat(_ context.Context, _ string, req *TaskHeartbeatRequest) (int, interface{}) {
	exp, err := s.tasks.Heartbeat(req.ID, req.LeaseToken)
	if err != nil {
		return taskFail(err)
	}
	return http.StatusOK, TaskHeartbeatResponse{LeaseExpires: exp}
}

func (s *Server) handleTaskComplete(_ context.Context, _ string, req *TaskCompleteRequest) (int, interface{}) {
	if err := s.tasks.Complete(req.ID, req.LeaseToken, req.Result); err != nil {
		return taskFail(err)
	}
	return http.StatusOK, TaskCompleteResponse{OK: true}
}

func (s *Server) handleTaskFail(_ context.Context, _ string, req *TaskFailRequest) (int, interface{}) {
	state, err := s.tasks.Fail(req.ID, req.LeaseToken, req.Reason, req.Checkpoint)
	if err != nil {
		return taskFail(err)
	}
	return http.StatusOK, TaskFailResponse{State: state}
}

func (s *Server) handleTaskList(_ context.Context, _ string, req *TaskListRequest) (int, interface{}) {
	tasks := s.tasks.List(req.State)
	resp := TaskListResponse{Tasks: make([]taskpool.Task, len(tasks))}
	for i, t := range tasks {
		t.LeaseToken = "" // capability: only the lease holder sees it
		resp.Tasks[i] = *t
	}
	return http.StatusOK, resp
}

// SubmitTaskContext queues a tuning job on the server and returns its id.
func (c *Client) SubmitTaskContext(ctx context.Context, spec taskpool.Spec) (string, error) {
	var resp TaskSubmitResponse
	err := c.post(ctx, PathTaskSubmit, TaskSubmitRequest{Spec: spec}, &resp)
	return resp.ID, err
}

// LeaseTaskContext asks for the next runnable task matching the machine
// tags. It returns (nil, ttl, nil) when the pool has nothing leasable.
func (c *Client) LeaseTaskContext(ctx context.Context, worker string, m taskpool.MachineConstraint) (*taskpool.Task, time.Duration, error) {
	var resp TaskLeaseResponse
	err := c.post(ctx, PathTaskLease, TaskLeaseRequest{Worker: worker, Machine: m}, &resp)
	return resp.Task, time.Duration(resp.LeaseTTLSeconds * float64(time.Second)), err
}

// HeartbeatTaskContext renews a lease and returns the new expiry.
func (c *Client) HeartbeatTaskContext(ctx context.Context, id, token string) (time.Time, error) {
	var resp TaskHeartbeatResponse
	err := c.post(ctx, PathTaskHeartbeat, TaskHeartbeatRequest{ID: id, LeaseToken: token}, &resp)
	return resp.LeaseExpires, err
}

// CompleteTaskContext reports a finished task. Retries after a lost
// response are safe: completion is idempotent under the winning lease
// token.
func (c *Client) CompleteTaskContext(ctx context.Context, id, token string, res taskpool.Result) error {
	return c.post(ctx, PathTaskComplete, TaskCompleteRequest{ID: id, LeaseToken: token, Result: res}, nil)
}

// FailTaskContext reports that the worker could not finish; a non-nil
// checkpoint hands partial progress to the next lease. The returned
// state says whether the task was requeued or dead-lettered.
func (c *Client) FailTaskContext(ctx context.Context, id, token, reason string, checkpoint json.RawMessage) (taskpool.State, error) {
	var resp TaskFailResponse
	err := c.post(ctx, PathTaskFail, TaskFailRequest{ID: id, LeaseToken: token, Reason: reason, Checkpoint: checkpoint}, &resp)
	return resp.State, err
}

// ListTasksContext lists tasks in the given state ("" = all), lease
// tokens redacted.
func (c *Client) ListTasksContext(ctx context.Context, state taskpool.State) ([]taskpool.Task, error) {
	var resp TaskListResponse
	err := c.post(ctx, PathTaskList, TaskListRequest{State: state}, &resp)
	return resp.Tasks, err
}
