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

// logLocked appends the mutation's two records — the task's current
// state, then the cumulative counters — to the pool's journal. Called
// with p.mu held, so records land in mutation order, and state equality
// holds at every entry boundary that follows a counters record. A
// mutation whose records were not kept returns the error, not a result.
func (p *Pool) logLocked(t *Task) error {
	if err := p.journal.Append(walRecord{Op: "task", Task: t}); err != nil {
		return err
	}
	return p.journal.Append(walRecord{Op: "counters", Counters: &p.counters})
}

// Journal returns the pool's journal; unbound, the pool is memory-only.
func (p *Pool) Journal() *replog.Journal { return p.journal }

// WriteJSONL writes a snapshot: one "task" record per task (in id
// order) and one final "counters" record.
func (p *Pool) WriteJSONL(w io.Writer) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.writeJSONLLocked(w)
}

func (p *Pool) writeJSONLLocked(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, t := range p.snapshotLocked() {
		if err := enc.Encode(walRecord{Op: "task", Task: t}); err != nil {
			return err
		}
	}
	if err := enc.Encode(walRecord{Op: "counters", Counters: &p.counters}); err != nil {
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
	fresh := &Pool{tasks: make(map[string]*Task), nextID: 1, nextSeq: 1}
	for i, line := range lines {
		var rec walRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			if i == len(lines)-1 {
				break // torn final append from a crash; drop it
			}
			return fmt.Errorf("taskpool: bad WAL line %d: %w", i+1, err)
		}
		fresh.applyLocked(rec)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tasks, p.queue, p.counters = fresh.tasks, fresh.queue, fresh.counters
	p.nextID, p.nextSeq = fresh.nextID, fresh.nextSeq
	return nil
}

// ApplyLogRecord applies one replicated-log entry to the pool — the
// follower path, and the incremental half of replay. Entries carry
// the same walRecord payloads a snapshot does, so replaying a log and
// reading a snapshot converge on the same state.
func (p *Pool) ApplyLogRecord(rec replog.Record) error {
	var wr walRecord
	if err := json.Unmarshal(rec.Payload, &wr); err != nil {
		return fmt.Errorf("taskpool: log entry %d: %w", rec.Index, err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.applyLocked(wr)
	return nil
}

// applyLocked upserts one record: a task by id, or the counters.
func (p *Pool) applyLocked(wr walRecord) {
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
}

// upsertLocked installs a replayed task and maintains the derived
// state: id/seq watermarks and the FIFO queue in QueueSeq order.
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
