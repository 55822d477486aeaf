package replog

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
)

// Machine is a replicated state machine: state that is rebuilt by
// restoring a snapshot and applying log records in index order. The
// history store's collections and the task pool implement it.
type Machine interface {
	// ApplyLogRecord applies one log entry. Apply is deterministic and
	// idempotent (a re-delivered entry changes nothing), and an entry it
	// rejects leaves the machine unchanged.
	ApplyLogRecord(Record) error
	// ReadJSONL replaces the state with a snapshot; a stream it rejects
	// leaves the machine unchanged.
	ReadJSONL(io.Reader) error
	// WriteJSONL writes a snapshot ReadJSONL restores.
	WriteJSONL(io.Writer) error
	// Len counts the machine's records (documents, tasks).
	Len() int
}

// Journal pairs one Machine with the Log that makes it durable and
// replicable, and is the only code that moves the two together. Two
// rules hold at every return:
//
//   - Fail-stop. The first failed log write sticks: it is returned, Err
//     reports it from then on, and every later operation refuses with
//     it — whoever acknowledges writes has one place to ask whether
//     they were kept.
//   - Log and machine move together. LastIndex covers an index only
//     when both hold it: the follower operations change the machine
//     first and the log second, what the machine rejects reaches
//     neither, and a log write that fails after the machine changed is
//     a fail-stop.
//
// A machine owns its Journal and calls Append from inside its own
// mutations; until Open binds a log, Append is a no-op and the machine
// is memory-only.
type Journal struct {
	m        Machine
	lock     sync.Locker
	snapshot func(io.Writer) error

	mu  sync.Mutex // guards log and err
	log *Log
	err error
}

// NewJournal returns m's unbound journal. lock is the lock m holds
// whenever it calls Append; snapshot writes m's snapshot and is called
// with lock held, so a snapshot and the log position it is filed under
// cannot be separated by a mutation.
func NewJournal(m Machine, lock sync.Locker, snapshot func(io.Writer) error) *Journal {
	return &Journal{m: m, lock: lock, snapshot: snapshot}
}

// Open opens (or creates) the log at dir — memory-only when dir is
// empty — replays it into the machine (newest snapshot, then every
// retained entry) and binds it: from here on the machine's mutations
// are appended.
func (j *Journal) Open(dir string, opts Options) error {
	lg, err := Open(dir, opts)
	if err != nil {
		return err
	}
	if err := lg.replay(j.m); err != nil {
		lg.Close()
		return err
	}
	j.mu.Lock()
	j.log = lg
	j.mu.Unlock()
	return nil
}

// state returns the bound log and the sticky failure.
func (j *Journal) state() (*Log, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log, j.err
}

// Log returns the bound log (nil before Open).
func (j *Journal) Log() *Log { lg, _ := j.state(); return lg }

// Err returns the failure that stopped the journal, if any.
func (j *Journal) Err() error { _, err := j.state(); return err }

// Machine returns the state machine the journal drives.
func (j *Journal) Machine() Machine { return j.m }

// fail records a failed log write (the first one sticks) and returns
// the sticky error.
func (j *Journal) fail(lg *Log, op string, err error) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err == nil {
		j.err = fmt.Errorf("%s: journal failed at %s: %w", lg.opts.Name, op, err)
	}
	return j.err
}

// Append marshals one mutation record and appends it at the next index.
// The machine calls it with its lock held, so records land in mutation
// order; a mutation whose Append returned an error must not be
// acknowledged. Unbound, it does nothing.
func (j *Journal) Append(rec interface{}) error {
	lg, err := j.state()
	if lg == nil || err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err == nil {
		_, err = lg.Append(b)
	}
	if err != nil {
		return j.fail(lg, "append", err)
	}
	return nil
}

// Compact folds the log down to one snapshot of the machine's current
// state. Snapshot and truncation happen under the machine's lock, so no
// mutation can slip between them.
func (j *Journal) Compact() error {
	j.lock.Lock()
	defer j.lock.Unlock()
	// Read under the lock: a machine ahead of its log (a failed append)
	// must not be filed as the state at the log's last index.
	lg, err := j.state()
	if lg == nil || err != nil {
		return err
	}
	return lg.compact(lg.LastIndex(), j.snapshot)
}

// Apply is the follower's half of replication: one record, already
// numbered by the leader, goes into the machine and then the log. A
// record at or below LastIndex is a duplicate delivery and a no-op; one
// beyond LastIndex+1 is ErrGap; one the machine rejects is not appended.
func (j *Journal) Apply(rec Record) error {
	lg, err := j.state()
	if err != nil {
		return err
	}
	last := lg.LastIndex()
	if rec.Index <= last {
		return nil
	}
	if rec.Index != last+1 {
		return fmt.Errorf("%w: have %d, got %d", ErrGap, last, rec.Index)
	}
	if err := j.m.ApplyLogRecord(rec); err != nil {
		return err
	}
	if err := lg.appendRecord(rec); err != nil {
		return j.fail(lg, "apply", err)
	}
	return nil
}

// Restore replaces machine and log with the leader's snapshot taken at
// index ("" is the empty state). Without force it is the catch-up of a
// follower behind the leader's compaction horizon, and a snapshot at or
// below LastIndex is a duplicate delivery and a no-op. With force it is
// the truncation resync of a diverged replica: whatever the log held,
// including entries above index, is discarded.
func (j *Journal) Restore(index uint64, snapshot string, force bool) error {
	lg, err := j.state()
	if err != nil {
		return err
	}
	if !force && index <= lg.LastIndex() {
		return nil
	}
	if err := j.m.ReadJSONL(strings.NewReader(snapshot)); err != nil {
		return err
	}
	if err := lg.reset(index, strings.NewReader(snapshot)); err != nil {
		return j.fail(lg, "restore", err)
	}
	return nil
}
