package taskpool

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"gptunecrowd/internal/replog"
)

// walRecord is one persisted line. Every mutation appends the full
// updated task (op "task") followed by the cumulative counters (op
// "counters"); replay is a plain upsert, so a snapshot — one "task"
// record per task plus the final counters — and a WAL are read by the
// same code.
type walRecord struct {
	Op       string    `json:"op"`
	Task     *Task     `json:"task,omitempty"`
	Counters *Counters `json:"counters,omitempty"`
}

// logLocked appends the task's current state (and the counters) to the
// bound replicated log. Called with p.mu held, so records land in
// mutation order. The first write error sticks and disables further
// writes.
func (p *Pool) logLocked(t *Task) {
	if p.walErr == nil && p.log != nil {
		p.walErr = p.appendLogLocked(t)
	}
}

// appendLogLocked appends the mutation's two records as two replicated
// log entries. The counters entry trails the task entry, so state
// equality holds at every entry boundary that follows a counters
// record.
func (p *Pool) appendLogLocked(t *Task) error {
	tb, err := json.Marshal(walRecord{Op: "task", Task: t})
	if err != nil {
		return err
	}
	if _, err := p.log.Append(tb); err != nil {
		return err
	}
	cb, err := json.Marshal(walRecord{Op: "counters", Counters: &p.counters})
	if err != nil {
		return err
	}
	_, err = p.log.Append(cb)
	return err
}

func writeRecords(w io.Writer, t *Task, c *Counters) error {
	enc := json.NewEncoder(w)
	if t != nil {
		if err := enc.Encode(walRecord{Op: "task", Task: t}); err != nil {
			return err
		}
	}
	if c != nil {
		if err := enc.Encode(walRecord{Op: "counters", Counters: c}); err != nil {
			return err
		}
	}
	return nil
}

// BindLog attaches a replicated log: every subsequent mutation appends
// its records as log entries (replicable to followers and compactable
// in place). Pass nil to detach.
func (p *Pool) BindLog(lg *replog.Log) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.log = lg
	p.walErr = nil
}

// Log returns the bound replicated log, if any.
func (p *Pool) Log() *replog.Log {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.log
}

// WALError returns the first write error the bound log produced, if
// any. Persistence failure does not block the pool; the operator is
// expected to surface this.
func (p *Pool) WALError() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.walErr
}

// WriteJSONL writes a snapshot: one "task" record per task (in id
// order) and one final "counters" record.
func (p *Pool) WriteJSONL(w io.Writer) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.writeJSONLLocked(w)
}

func (p *Pool) writeJSONLLocked(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, t := range p.snapshotLocked() {
		if err := writeRecords(bw, t, nil); err != nil {
			return err
		}
	}
	if err := writeRecords(bw, nil, &p.counters); err != nil {
		return err
	}
	return bw.Flush()
}

func (p *Pool) snapshotLocked() []*Task {
	out := make([]*Task, 0, len(p.tasks))
	for _, t := range p.tasks {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return taskNum(out[i].ID) < taskNum(out[j].ID) })
	return out
}

// ReadJSONL replaces the pool contents from a snapshot or WAL stream
// (or a snapshot followed by a WAL — the formats are identical): "task"
// records upsert by id, last record wins; the last "counters" record
// wins. A torn final line (a crash mid-append) is tolerated; corruption
// anywhere else is an error.
func (p *Pool) ReadJSONL(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var lines []string
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			lines = append(lines, s)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	tasks := make(map[string]*Task)
	var counters Counters
	for i, line := range lines {
		var rec walRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			if i == len(lines)-1 {
				break // torn final append from a crash; drop it
			}
			return fmt.Errorf("taskpool: bad WAL line %d: %w", i+1, err)
		}
		switch rec.Op {
		case "task":
			if rec.Task != nil && rec.Task.ID != "" {
				tasks[rec.Task.ID] = rec.Task
			}
		case "counters":
			if rec.Counters != nil {
				counters = *rec.Counters
			}
		}
	}
	// Rebuild derived state: id/seq watermarks and the FIFO queue in
	// QueueSeq order.
	var queued []*Task
	nextID, nextSeq := int64(1), int64(1)
	for _, t := range tasks {
		if n := taskNum(t.ID); n >= nextID {
			nextID = n + 1
		}
		if t.QueueSeq >= nextSeq {
			nextSeq = t.QueueSeq + 1
		}
		if t.State == StateQueued {
			queued = append(queued, t)
		}
	}
	sort.Slice(queued, func(i, j int) bool { return queued[i].QueueSeq < queued[j].QueueSeq })
	queue := make([]string, len(queued))
	for i, t := range queued {
		queue[i] = t.ID
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tasks = tasks
	p.queue = queue
	p.nextID = nextID
	p.nextSeq = nextSeq
	p.counters = counters
	return nil
}

// ApplyLogRecord applies one replicated-log entry to the pool — the
// follower path, and the incremental half of ReplayLog. Entries carry
// the same walRecord payloads a snapshot does, so replaying a log and
// reading a snapshot converge on the same state.
func (p *Pool) ApplyLogRecord(rec replog.Record) error {
	var wr walRecord
	if err := json.Unmarshal(rec.Payload, &wr); err != nil {
		return fmt.Errorf("taskpool: log entry %d: %w", rec.Index, err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch wr.Op {
	case "task":
		if wr.Task != nil && wr.Task.ID != "" {
			p.upsertLocked(wr.Task)
		}
	case "counters":
		if wr.Counters != nil {
			p.counters = *wr.Counters
		}
	}
	return nil
}

// upsertLocked installs a replayed task and maintains the derived
// state ReadJSONL rebuilds wholesale: id/seq watermarks and the FIFO
// queue in QueueSeq order.
func (p *Pool) upsertLocked(t *Task) {
	prev := p.tasks[t.ID]
	p.tasks[t.ID] = t
	if n := taskNum(t.ID); n >= p.nextID {
		p.nextID = n + 1
	}
	if t.QueueSeq >= p.nextSeq {
		p.nextSeq = t.QueueSeq + 1
	}
	if prev != nil && prev.State == StateQueued {
		for i, id := range p.queue {
			if id == t.ID {
				p.queue = append(p.queue[:i:i], p.queue[i+1:]...)
				break
			}
		}
	}
	if t.State == StateQueued {
		i := sort.Search(len(p.queue), func(i int) bool {
			q := p.tasks[p.queue[i]]
			return q == nil || q.QueueSeq > t.QueueSeq
		})
		p.queue = append(p.queue, "")
		copy(p.queue[i+1:], p.queue[i:])
		p.queue[i] = t.ID
	}
}

// ReplayLog replaces the pool contents from the log (snapshot restore
// plus entry-by-entry apply) and binds the log for subsequent
// mutations.
func (p *Pool) ReplayLog(lg *replog.Log) error {
	if err := lg.Replay(p.ReadJSONL, p.ApplyLogRecord); err != nil {
		return err
	}
	p.BindLog(lg)
	return nil
}

// CompactLog folds the bound log down to a single snapshot of the
// current pool state. Snapshot and truncation happen under the pool
// lock, so no mutation can slip between them.
func (p *Pool) CompactLog() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.log == nil {
		return nil
	}
	return p.log.Compact(p.log.LastIndex(), p.writeJSONLLocked)
}

// OpenLog opens the pool's replicated log at dir and loads the pool
// from it. The returned log is bound to the pool; the caller closes it
// on shutdown.
func (p *Pool) OpenLog(dir string, opts replog.Options) (*replog.Log, error) {
	if opts.Name == "" {
		opts.Name = "taskpool"
	}
	lg, err := replog.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	if err := p.ReplayLog(lg); err != nil {
		lg.Close()
		return nil, err
	}
	return lg, nil
}
