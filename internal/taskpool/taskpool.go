// Package taskpool implements the crowd tuning-task pool: a durable,
// multi-tenant queue of tuning jobs that volunteer workers lease, run
// and complete — the crowd-experiment workflow of the paper (publish a
// tuning task to the shared repository; remote machines pull, run and
// upload).
//
// Lifecycle: a task is Submitted (queued), Leased by a worker under a
// TTL, kept alive with Heartbeats, and finished with Complete or Fail.
// A lease that is neither renewed nor finished expires and the task is
// requeued; a task whose lease count reaches its attempt cap is
// dead-lettered instead of requeued. Completion is exactly-once, keyed
// on the lease token: the first Complete with the winning token applies
// the result, later Completes with the same token replay idempotently,
// and Completes under a stale token (the lease expired and another
// worker took over) are rejected.
//
// Persistence follows historydb's JSONL style: every mutation appends
// its JSON records to a bound internal/replog segmented log
// (OpenLog/BindLog), and a snapshot is the same record stream compacted
// to one record per task, so loading a snapshot and replaying the log
// are the same operation. The log adds compaction, crash safety and
// leader→follower replication.
package taskpool

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"gptunecrowd/internal/replog"
)

// State is a task's lifecycle state.
type State string

// Task states.
const (
	StateQueued    State = "queued"
	StateLeased    State = "leased"
	StateCompleted State = "completed"
	// StateDead marks a dead-lettered task: its lease count reached the
	// attempt cap without a successful completion. Dead tasks stay in
	// the pool for inspection but are never leased again.
	StateDead State = "dead"
)

// Sentinel errors returned by pool operations.
var (
	// ErrNotFound reports an unknown task id.
	ErrNotFound = errors.New("taskpool: no such task")
	// ErrLeaseLost reports an operation under a lease token that is no
	// longer the task's active lease: the lease expired and was
	// requeued or re-leased, the task was completed under a different
	// token, or the task was dead-lettered.
	ErrLeaseLost = errors.New("taskpool: lease token no longer valid")
)

// MachineConstraint restricts which workers may lease a task. Empty
// fields match anything, so the zero value admits every worker.
type MachineConstraint struct {
	MachineName string `json:"machine_name,omitempty"`
	Partition   string `json:"partition,omitempty"`
}

// Admits reports whether a worker with the given machine tags may lease
// a task carrying this constraint.
func (c MachineConstraint) Admits(m MachineConstraint) bool {
	if c.MachineName != "" && c.MachineName != m.MachineName {
		return false
	}
	if c.Partition != "" && c.Partition != m.Partition {
		return false
	}
	return true
}

// Task kinds carried by Spec.Kind.
const (
	// KindTune (the default, also spelled "") is a whole tuning run: the
	// worker opens a session and iterates propose → evaluate → observe.
	KindTune = "tune"
	// KindEval is a single function evaluation of Spec.ParamU on behalf
	// of a batch session: the fan-out unit of asynchronous batched
	// optimization, where one coordinator proposes and many workers
	// evaluate concurrently.
	KindEval = "eval"
)

// Spec is the tuning-problem specification a task carries: everything a
// worker needs to run the job against the built-in application registry.
type Spec struct {
	// App names the application in the internal/apps registry.
	App string `json:"app"`
	// Kind selects the task type: "" or "tune" runs a whole tuning
	// session, "eval" evaluates the single point ParamU.
	Kind string `json:"kind,omitempty"`
	// TuningProblemName labels uploaded samples; defaults to App.
	TuningProblemName string `json:"tuning_problem_name,omitempty"`
	// TaskParams are the task (input) parameter values; nil selects the
	// application's default task.
	TaskParams map[string]interface{} `json:"task_parameters,omitempty"`
	// Budget is the number of function evaluations to run.
	Budget int `json:"budget"`
	// Seed makes the tuning run reproducible.
	Seed int64 `json:"seed"`
	// Algorithm selects the proposer (empty = NoTLA).
	Algorithm string `json:"algorithm,omitempty"`
	// Machine restricts which workers may lease the task.
	Machine MachineConstraint `json:"machine_constraint,omitempty"`
	// Checkpoint, when non-nil, is a serialized tuning-session state:
	// the worker resumes from it instead of starting fresh. A worker
	// that drains mid-task stores its checkpoint here (via Fail), so
	// the next lease continues where the previous one stopped.
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
	// ParamU is the canonical (normalized) point an eval-kind task
	// evaluates.
	ParamU []float64 `json:"param_u,omitempty"`
	// ProposalID ties an eval-kind task back to the proposing session's
	// pending-proposal ledger entry, so its result can be observed
	// out of order.
	ProposalID uint64 `json:"proposal_id,omitempty"`
	// TraceID links the task to the submitting request's trace: the
	// server stamps it at submission and workers adopt it for the whole
	// lease lifecycle, so one tuning run is followable from client
	// upload through server logs to task completion. It survives WAL
	// replay, checkpoints and requeues like the rest of the spec.
	TraceID string `json:"trace_id,omitempty"`
}

// Validate checks the spec before submission.
func (s *Spec) Validate() error {
	if s.App == "" {
		return fmt.Errorf("taskpool: spec needs an app")
	}
	switch s.Kind {
	case "", KindTune:
		if s.Budget <= 0 {
			return fmt.Errorf("taskpool: spec needs a positive budget, got %d", s.Budget)
		}
	case KindEval:
		if len(s.ParamU) == 0 {
			return fmt.Errorf("taskpool: eval spec needs a non-empty param_u")
		}
		for d, u := range s.ParamU {
			if math.IsNaN(u) || math.IsInf(u, 0) {
				return fmt.Errorf("taskpool: eval spec param_u has non-finite coordinate %v at dim %d", u, d)
			}
		}
	default:
		return fmt.Errorf("taskpool: unknown task kind %q (want %q or %q)", s.Kind, KindTune, KindEval)
	}
	return nil
}

// Result is what a worker reports on completion.
type Result struct {
	BestParams map[string]interface{} `json:"best_parameters,omitempty"`
	BestY      float64                `json:"best_y"`
	NumEvals   int                    `json:"num_evals"`
	// FuncEvalIDs are the ids of the samples the worker uploaded to the
	// shared database for this run.
	FuncEvalIDs []string `json:"func_eval_ids,omitempty"`
	// Checkpoint is the final serialized session state (resumable if
	// the submitter wants to extend the budget later).
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
	// Faults counts the faults the worker absorbed while running this
	// task (recovered panics, timed-out evaluations, imputed failures,
	// surrogate-fit fallbacks).
	Faults FaultStats `json:"faults,omitempty"`
	// Observation carries the single-evaluation result of an eval-kind
	// task, addressed by the proposal id it answers.
	Observation *Observation `json:"observation,omitempty"`
}

// Observation is the result of one eval-kind task: the evaluated point,
// its objective (or failure), and the proposal id it answers.
type Observation struct {
	ProposalID uint64    `json:"proposal_id"`
	ParamU     []float64 `json:"param_u,omitempty"`
	Y          float64   `json:"y"`
	Failed     bool      `json:"failed,omitempty"`
	Err        string    `json:"err,omitempty"`
}

// FaultStats counts the evaluation faults a worker survived while
// running a task. Completed tasks' stats aggregate into
// Counters.WorkerFaults.
type FaultStats struct {
	// PanicsRecovered counts evaluations that panicked and were
	// converted into failed samples.
	PanicsRecovered int64 `json:"panics_recovered,omitempty"`
	// Timeouts counts evaluations abandoned at the worker's deadline.
	Timeouts int64 `json:"timeouts,omitempty"`
	// ImputedEvals counts failed evaluations recorded into the history
	// (the tuner penalty-imputes them before each surrogate fit).
	ImputedEvals int64 `json:"imputed_evals,omitempty"`
	// FitFallbacks counts iterations answered by space-filling sampling
	// because a surrogate fit failed.
	FitFallbacks int64 `json:"fit_fallbacks,omitempty"`
}

// Add accumulates o into f.
func (f *FaultStats) Add(o FaultStats) {
	f.PanicsRecovered += o.PanicsRecovered
	f.Timeouts += o.Timeouts
	f.ImputedEvals += o.ImputedEvals
	f.FitFallbacks += o.FitFallbacks
}

// Task is one pool entry. Pool methods return copies; the maps and
// slices inside are shared and must be treated as read-only.
type Task struct {
	ID          string `json:"id"`
	Owner       string `json:"owner,omitempty"`
	Spec        Spec   `json:"spec"`
	State       State  `json:"state"`
	Attempts    int    `json:"attempts"`
	MaxAttempts int    `json:"max_attempts"`

	Worker       string    `json:"worker,omitempty"`
	LeaseToken   string    `json:"lease_token,omitempty"`
	LeaseExpires time.Time `json:"lease_expires,omitempty"`

	SubmittedAt time.Time `json:"submitted_at"`
	CompletedAt time.Time `json:"completed_at,omitempty"`
	Result      *Result   `json:"result,omitempty"`
	LastError   string    `json:"last_error,omitempty"`

	// QueueSeq orders the FIFO queue across snapshot/WAL replay:
	// requeued tasks get a fresh (higher) sequence, so recovery rebuilds
	// the exact queue order.
	QueueSeq int64 `json:"queue_seq,omitempty"`
}

func (t *Task) copy() *Task {
	c := *t
	if t.Result != nil {
		r := *t.Result
		c.Result = &r
	}
	return &c
}

// Counters are the pool's cumulative (monotonic) counters. Gauges live
// in Stats.
type Counters struct {
	Submitted       int64 `json:"submitted"`
	Leases          int64 `json:"leases"`
	Completions     int64 `json:"completions"`
	Failures        int64 `json:"failures"` // explicit Fail calls
	ExpiredRequeues int64 `json:"expired_requeues"`
	DeadLettered    int64 `json:"dead_lettered"`
	// WorkerFaults aggregates the FaultStats of every completed task.
	WorkerFaults FaultStats `json:"worker_faults"`
}

// Stats is a point-in-time view of the pool: state gauges plus the
// cumulative counters. Served on /api/v1/stats.
type Stats struct {
	Queued    int64 `json:"queued"`
	Leased    int64 `json:"leased"`
	Completed int64 `json:"completed"`
	Dead      int64 `json:"dead"`
	Counters
}

// Config tunes the pool. The zero value selects the defaults below.
type Config struct {
	// LeaseTTL is how long a lease lives without a heartbeat.
	LeaseTTL time.Duration
	// MaxAttempts caps how often a task may be leased before it is
	// dead-lettered.
	MaxAttempts int
	// Now overrides the clock (tests). nil means time.Now.
	Now func() time.Time
}

// Defaults for the zero Config.
const (
	DefaultLeaseTTL    = 60 * time.Second
	DefaultMaxAttempts = 5
)

func (c Config) leaseTTL() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return DefaultLeaseTTL
}

func (c Config) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return DefaultMaxAttempts
}

// Pool is the durable task queue. All methods are safe for concurrent
// use.
type Pool struct {
	mu       sync.Mutex
	cfg      Config
	tasks    map[string]*Task
	queue    []string // FIFO of queued task ids
	nextID   int64
	nextSeq  int64
	counters Counters
	journal  *replog.Journal
}

// New returns an empty pool.
func New(cfg Config) *Pool {
	p := &Pool{cfg: cfg, tasks: make(map[string]*Task), nextID: 1, nextSeq: 1}
	p.journal = replog.NewJournal(p, &p.mu, p.writeJSONLLocked)
	return p
}

func (p *Pool) now() time.Time {
	if p.cfg.Now != nil {
		return p.cfg.Now()
	}
	return time.Now()
}

// LeaseTTL returns the configured lease TTL.
func (p *Pool) LeaseTTL() time.Duration { return p.cfg.leaseTTL() }

// newLeaseToken generates a 128-bit lease token.
func newLeaseToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failure is unrecoverable
	}
	return hex.EncodeToString(b[:])
}

// Submit queues a task and returns its id.
func (p *Pool) Submit(owner string, spec Spec) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	t := &Task{
		ID:          fmt.Sprintf("t%d", p.nextID),
		Owner:       owner,
		Spec:        spec,
		State:       StateQueued,
		MaxAttempts: p.cfg.maxAttempts(),
		SubmittedAt: p.now(),
		QueueSeq:    p.nextSeq,
	}
	p.nextID++
	p.nextSeq++
	p.tasks[t.ID] = t
	p.queue = append(p.queue, t.ID)
	p.counters.Submitted++
	if err := p.logLocked(t); err != nil {
		return "", err
	}
	return t.ID, nil
}

// Lease hands the oldest queued task admitting the worker's machine
// tags to the worker, under a fresh lease token and TTL. It returns
// (nil, nil) when no leasable task exists. Expired leases are swept
// first, so a crashed worker's task becomes leasable as soon as its TTL
// passes.
func (p *Pool) Lease(worker string, m MachineConstraint) (*Task, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	p.expireLocked(now)
	for i, id := range p.queue {
		t := p.tasks[id]
		if t == nil || t.State != StateQueued {
			continue // stale queue entry
		}
		if !t.Spec.Machine.Admits(m) {
			continue
		}
		p.queue = append(p.queue[:i:i], p.queue[i+1:]...)
		t.State = StateLeased
		t.Worker = worker
		t.Attempts++
		t.LeaseToken = newLeaseToken()
		t.LeaseExpires = now.Add(p.cfg.leaseTTL())
		p.counters.Leases++
		if err := p.logLocked(t); err != nil {
			return nil, err
		}
		return t.copy(), nil
	}
	return nil, nil
}

// Heartbeat renews a lease and returns the new expiry. The token must
// be the task's active lease.
func (p *Pool) Heartbeat(id, token string) (time.Time, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	p.expireLocked(now)
	t := p.tasks[id]
	if t == nil {
		return time.Time{}, ErrNotFound
	}
	if t.State != StateLeased || t.LeaseToken != token {
		return time.Time{}, ErrLeaseLost
	}
	t.LeaseExpires = now.Add(p.cfg.leaseTTL())
	if err := p.logLocked(t); err != nil {
		return time.Time{}, err
	}
	return t.LeaseExpires, nil
}

// Complete records the task's result exactly once, keyed on the lease
// token. A repeat Complete with the winning token is an idempotent
// no-op (the retry path after a lost response); any other token gets
// ErrLeaseLost.
func (p *Pool) Complete(id, token string, res Result) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.expireLocked(p.now())
	t := p.tasks[id]
	if t == nil {
		return ErrNotFound
	}
	if t.State == StateCompleted {
		if t.LeaseToken == token {
			return nil // idempotent replay
		}
		return ErrLeaseLost
	}
	if t.State != StateLeased || t.LeaseToken != token {
		return ErrLeaseLost
	}
	t.State = StateCompleted
	t.Result = &res
	t.CompletedAt = p.now()
	t.LastError = ""
	p.counters.Completions++
	p.counters.WorkerFaults.Add(res.Faults)
	return p.logLocked(t)
}

// Fail reports that the worker could not finish the task. The task is
// requeued for another attempt, or dead-lettered when its attempt cap
// is exhausted; the returned state says which. A non-nil checkpoint
// replaces the spec's checkpoint, so a draining worker can hand its
// partial progress to whoever leases the task next.
func (p *Pool) Fail(id, token, reason string, checkpoint json.RawMessage) (State, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.expireLocked(p.now())
	t := p.tasks[id]
	if t == nil {
		return "", ErrNotFound
	}
	if t.State != StateLeased || t.LeaseToken != token {
		return "", ErrLeaseLost
	}
	t.LastError = reason
	if len(checkpoint) > 0 {
		t.Spec.Checkpoint = checkpoint
	}
	p.counters.Failures++
	if t.Attempts >= t.MaxAttempts {
		p.deadLetterLocked(t)
	} else {
		p.requeueLocked(t)
	}
	if err := p.logLocked(t); err != nil {
		return "", err
	}
	return t.State, nil
}

// ExpireLeases requeues (or dead-letters) every task whose lease TTL
// has passed and returns how many leases expired. The pool also sweeps
// lazily on every mutating call; this entry point is for a periodic
// background sweeper.
func (p *Pool) ExpireLeases() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.expireLocked(p.now())
}

// expireLocked sweeps expired leases. Expired tasks are processed in
// QueueSeq order so the requeue order (and therefore WAL replay) is
// deterministic regardless of map iteration order.
func (p *Pool) expireLocked(now time.Time) int {
	var expired []*Task
	for _, t := range p.tasks {
		if t.State == StateLeased && now.After(t.LeaseExpires) {
			expired = append(expired, t)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i].QueueSeq < expired[j].QueueSeq })
	for _, t := range expired {
		t.LastError = fmt.Sprintf("lease by %q expired", t.Worker)
		p.counters.ExpiredRequeues++
		if t.Attempts >= t.MaxAttempts {
			p.deadLetterLocked(t)
		} else {
			p.requeueLocked(t)
		}
		_ = p.logLocked(t) // a failure is sticky: the next append, or the node's write gate, reports it
	}
	return len(expired)
}

func (p *Pool) requeueLocked(t *Task) {
	t.State = StateQueued
	t.Worker = ""
	t.LeaseToken = ""
	t.LeaseExpires = time.Time{}
	t.QueueSeq = p.nextSeq
	p.nextSeq++
	p.queue = append(p.queue, t.ID)
}

func (p *Pool) deadLetterLocked(t *Task) {
	t.State = StateDead
	t.Worker = ""
	t.LeaseToken = ""
	t.LeaseExpires = time.Time{}
	p.counters.DeadLettered++
}

// Get returns a copy of the task, if it exists.
func (p *Pool) Get(id string) (*Task, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.tasks[id]
	if t == nil {
		return nil, false
	}
	return t.copy(), true
}

// List returns copies of the tasks in the given state ("" = all),
// ordered by id.
func (p *Pool) List(state State) []*Task {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Task, 0, len(p.tasks))
	for _, t := range p.tasks {
		if state == "" || t.State == state {
			out = append(out, t.copy())
		}
	}
	sort.Slice(out, func(i, j int) bool { return taskNum(out[i].ID) < taskNum(out[j].ID) })
	return out
}

func taskNum(id string) int64 {
	var n int64
	fmt.Sscanf(id, "t%d", &n)
	return n
}

// Stats returns the state gauges and cumulative counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Stats{Counters: p.counters}
	for _, t := range p.tasks {
		switch t.State {
		case StateQueued:
			s.Queued++
		case StateLeased:
			s.Leased++
		case StateCompleted:
			s.Completed++
		case StateDead:
			s.Dead++
		}
	}
	return s
}

// Len returns the number of tasks in the pool (all states).
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.tasks)
}
