package cluster

// A node's replicated state machines as one ordered table, and every
// loop over it. node.go decides (role, epoch, fencing, the barrier);
// replicate.go ships; this file is the only place that knows there are
// several logs, which machines they drive and in what order.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"

	"gptunecrowd/internal/crowd"
	"gptunecrowd/internal/replog"
)

// logRow is one replicated state machine: its log name (the directory
// under DataDir and the key on the wire) and its journal.
type logRow struct {
	name string
	j    *replog.Journal
	// changed, when set, runs after a follower apply moved this machine
	// by recs (none when a snapshot replaced the state): it refreshes
	// what the leader's write path maintains inline.
	changed func(recs []replog.Record) error
}

// logSet is the rows in the fixed order every apply batch is processed
// (deterministic across nodes).
type logSet struct {
	rows []logRow
}

// openLogSet declares the server's five state machines, opens each
// one's log under dataDir (memory-only when empty) and replays it.
func openLogSet(srv *crowd.Server, dataDir string, opts replog.Options) (*logSet, error) {
	coll := func(name string) *replog.Journal { return srv.Store().Collection(name).Journal() }
	s := &logSet{rows: []logRow{
		{name: "func_evals", j: coll("func_evals"), changed: func(recs []replog.Record) error {
			// The follower's suggest service learns about replicated
			// samples here (the leader's upload path notifies locally).
			for problem, k := range countProblemAppends(recs) {
				srv.NotifyProblemAppend(problem, k)
			}
			return nil
		}},
		{name: "quarantine", j: coll("quarantine")},
		{name: "surrogate_models", j: coll("surrogate_models")},
		{name: "tasks", j: srv.TaskPool().Journal()},
		{name: "users", j: coll("users"), changed: func([]replog.Record) error {
			return srv.RebuildUserIndex()
		}},
	}}
	for _, row := range s.rows {
		dir := ""
		if dataDir != "" {
			dir = filepath.Join(dataDir, row.name)
		}
		opts.Name = row.name
		if err := row.j.Open(dir, opts); err != nil {
			s.close()
			return nil, fmt.Errorf("cluster: open %s log: %w", row.name, err)
		}
	}
	return s, nil
}

// each visits the rows in order.
func (s *logSet) each(fn func(name string, j *replog.Journal)) {
	for _, row := range s.rows {
		fn(row.name, row.j)
	}
}

// log returns the named log (nil when unknown).
func (s *logSet) log(name string) *replog.Log {
	for _, row := range s.rows {
		if row.name == name {
			return row.j.Log()
		}
	}
	return nil
}

// firstErr runs op on every row and returns the first failure, named.
func (s *logSet) firstErr(what string, op func(logRow) error) error {
	var first error
	for _, row := range s.rows {
		if err := op(row); err != nil && first == nil {
			first = fmt.Errorf("cluster: %s %s: %w", what, row.name, err)
		}
	}
	return first
}

// close closes every opened log.
func (s *logSet) close() error {
	return s.firstErr("close", func(row logRow) error {
		if lg := row.j.Log(); lg != nil {
			return lg.Close()
		}
		return nil
	})
}

// err is the first journal failure, if any: a node with one has logged
// fewer mutations than it applied and must not acknowledge another.
func (s *logSet) err() error {
	for _, row := range s.rows {
		if err := row.j.Err(); err != nil {
			return err
		}
	}
	return nil
}

// term is the promotion epoch that survived the last shutdown: the
// highest across the logs (they are always written together).
func (s *logSet) term() uint64 {
	var t uint64
	for _, row := range s.rows {
		if lt := row.j.Log().Term(); lt > t {
			t = lt
		}
	}
	return t
}

// setTerm stamps epoch onto every log (monotone, idempotent).
func (s *logSet) setTerm(epoch uint64) error {
	return s.firstErr("persist epoch on", func(row logRow) error { return row.j.Log().SetTerm(epoch) })
}

// compact folds every log down to a snapshot of current state.
func (s *logSet) compact() error {
	return s.firstErr("compact", func(row logRow) error { return row.j.Compact() })
}

// LogInfo is one log's replication position.
type LogInfo struct {
	Last   uint64 `json:"last"`
	Commit uint64 `json:"commit"`
	Snap   uint64 `json:"snap"`
}

// info is every log's replication position.
func (s *logSet) info() map[string]LogInfo {
	out := make(map[string]LogInfo, len(s.rows))
	for _, row := range s.rows {
		st := row.j.Log().Stats()
		out[row.name] = LogInfo{Last: st.LastIndex, Commit: st.CommitIndex, Snap: st.SnapIndex}
	}
	return out
}

// uncommitted is the barrier's wait list: the head of every log that
// holds entries past its commit index.
func (s *logSet) uncommitted() map[string]uint64 {
	targets := make(map[string]uint64)
	for _, row := range s.rows {
		if st := row.j.Log().Stats(); st.LastIndex > st.CommitIndex {
			targets[row.name] = st.LastIndex
		}
	}
	return targets
}

// waitCommitted blocks until every target is committed or done closes.
func (s *logSet) waitCommitted(targets map[string]uint64, done <-chan struct{}) bool {
	for _, row := range s.rows {
		if idx, ok := targets[row.name]; ok && !row.j.Log().WaitCommitted(idx, done) {
			return false
		}
	}
	return true
}

// commitAcked advances each log's commit index to the minimum index the
// quorum acknowledged — the log's own head when the quorum is empty (a
// shard of one, and a freshly promoted leader, acknowledge alone).
func (s *logSet) commitAcked(quorum []*Replicator) {
	for _, row := range s.rows {
		lg := row.j.Log()
		min := lg.LastIndex()
		for _, r := range quorum {
			if a := r.ackedIndex(row.name); a < min {
				min = a
			}
		}
		lg.Commit(min)
	}
}

// behind reports whether any log's head is past what acked reports for it.
func (s *logSet) behind(acked func(name string) uint64) bool {
	for _, row := range s.rows {
		if row.j.Log().LastIndex() > acked(row.name) {
			return true
		}
	}
	return false
}

// forced reports whether a push is a truncation resync.
func forced(batches map[string]*applyLogBatch) bool {
	for _, b := range batches {
		if b != nil && b.Force {
			return true
		}
	}
	return false
}

// batches assembles one push: per log, the records after the follower's
// acknowledged position, preceded by the snapshot when that position is
// behind the compaction horizon. With force (the follower asked for a
// resync) every log goes out as a Force batch — snapshot, possibly
// absent, plus all retained entries — to replace a diverged tail.
func (s *logSet) batches(acked func(name string) uint64, force bool) (map[string]*applyLogBatch, error) {
	out := make(map[string]*applyLogBatch, len(s.rows))
	for _, row := range s.rows {
		lg := row.j.Log()
		batch := &applyLogBatch{Head: lg.LastIndex(), Force: force}
		after := acked(row.name)
		var ents []replog.Record
		err := replog.ErrCompacted // a Force batch always starts from the snapshot
		if !force {
			ents, err = lg.Entries(after, maxBatchRecords)
		}
		if errors.Is(err, replog.ErrCompacted) {
			var sb strings.Builder
			idx, ok, serr := lg.Snapshot(&sb)
			if serr != nil {
				return nil, fmt.Errorf("cluster: snapshot %s: %w", row.name, serr)
			}
			if ok {
				snap := sb.String()
				batch.Snapshot = &snap
				batch.SnapshotIndex = idx
			}
			ents, err = lg.Entries(idx, maxBatchRecords)
		}
		if err != nil {
			return nil, fmt.Errorf("cluster: entries %s after %d: %w", row.name, after, err)
		}
		for _, e := range ents {
			batch.Records = append(batch.Records, wireRecord{Index: e.Index, Payload: json.RawMessage(e.Payload)})
		}
		out[row.name] = batch
	}
	return out, nil
}

// diverged reports whether these logs can hold records the pushing
// leader does not carry: a local head past the leader's, or an
// overlapping record whose payload differs. Ordinary followers only
// append what a leader pushed, so the scan almost always short-circuits.
func (s *logSet) diverged(batches map[string]*applyLogBatch) bool {
	for _, row := range s.rows {
		batch := batches[row.name]
		if batch == nil {
			continue
		}
		lg := row.j.Log()
		last := lg.LastIndex()
		if batch.Head < last {
			return true
		}
		for _, wr := range batch.Records {
			if wr.Index > last {
				break // past our head: pure append, no overlap left
			}
			local, err := lg.Entries(wr.Index-1, 1)
			if err != nil || len(local) != 1 {
				continue // compacted below our snapshot: cannot compare
			}
			if !bytes.Equal(local[0].Payload, []byte(wr.Payload)) {
				return true
			}
		}
	}
	return false
}

// apply is the follower side of one push: each log's batch goes through
// its journal in the fixed order and the new positions are acknowledged.
// The journal keeps log and machine together, so an ack never covers an
// entry the machine rejected; the first failure stops that log and is
// reported beside its ack. It also returns how many records it applied.
func (s *logSet) apply(batches map[string]*applyLogBatch) (applyResponse, int) {
	resp := applyResponse{Acked: make(map[string]uint64, len(s.rows))}
	applied := 0
	for _, row := range s.rows {
		lg := row.j.Log()
		if batch := batches[row.name]; batch != nil {
			before := lg.LastIndex()
			recs, err := row.applyBatch(batch)
			applied += len(recs)
			if row.changed != nil && (batch.Force || lg.LastIndex() != before) {
				if cerr := row.changed(recs); err == nil {
					err = cerr
				}
			}
			if err != nil {
				if resp.Errors == nil {
					resp.Errors = make(map[string]string)
				}
				resp.Errors[row.name] = err.Error()
			}
		}
		// A follower's durable head is its commit point: everything
		// applied is acknowledged upstream.
		last := lg.LastIndex()
		lg.Commit(last)
		resp.Acked[row.name] = last
	}
	return resp, applied
}

// applyBatch drives one log's batch through its journal — a Force batch
// or a snapshot ahead of the log replaces machine and log, records
// follow one by one — and returns the records it applied (duplicates
// excluded), stopping at the first error.
func (row logRow) applyBatch(batch *applyLogBatch) ([]replog.Record, error) {
	if batch.Force || batch.Snapshot != nil {
		snap := ""
		if batch.Snapshot != nil {
			snap = *batch.Snapshot
		}
		if err := row.j.Restore(batch.SnapshotIndex, snap, batch.Force); err != nil {
			return nil, err
		}
	}
	var recs []replog.Record
	for _, wr := range batch.Records {
		if wr.Index <= row.j.Log().LastIndex() {
			continue // duplicate delivery (divergence was ruled out before apply)
		}
		rec := replog.Record{Index: wr.Index, Payload: []byte(wr.Payload)}
		if err := row.j.Apply(rec); err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// countProblemAppends extracts per-problem sample counts from func_evals
// insert records.
func countProblemAppends(recs []replog.Record) map[string]int {
	counts := make(map[string]int)
	for _, rec := range recs {
		var lr struct {
			Op   string `json:"op"`
			Docs []struct {
				Problem string `json:"tuning_problem_name"`
			} `json:"docs"`
		}
		if json.Unmarshal(rec.Payload, &lr) != nil || lr.Op != "insert" {
			continue
		}
		for _, d := range lr.Docs {
			if d.Problem != "" {
				counts[d.Problem]++
			}
		}
	}
	return counts
}
