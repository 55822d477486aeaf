// Package replog is the replicated write-ahead log shared by the
// crowd repository's durable state machines (the task pool and the
// history store):
//
//   - an append-only log of CRC-framed JSONL records with monotone,
//     gap-free indices, split across segment files that rotate at a
//     configurable record count;
//   - a commit index — the replication watermark a leader advances as
//     followers acknowledge entries — with blocking waiters, so a
//     server can hold a write response until the entry is replicated;
//   - snapshot+truncate compaction: the state machine's own snapshot
//     stream is written crash-safely (temp file, fsync, atomic rename)
//     at a given index and every segment at or below it is deleted;
//   - deterministic replay into any state machine: restore the newest
//     snapshot, then apply the surviving entries in index order;
//   - Journal, the one pairing of a Machine with its Log: open, replay
//     and bind, a fail-stop append, compaction under the machine's
//     lock, and the follower operations (journal.go).
//
// A torn final line in the newest segment (a crash mid-append) is
// dropped; any other line that is not a CRC-clean record envelope is
// corruption.
package replog

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Sentinel errors.
var (
	// ErrCompacted reports a request for entries at or below the
	// snapshot index: they were folded into the snapshot and are no
	// longer individually addressable. The caller should ship the
	// snapshot instead.
	ErrCompacted = errors.New("replog: entries compacted into snapshot")
	// ErrGap reports a follower append whose index would leave a hole in
	// the log (index > LastIndex()+1).
	ErrGap = errors.New("replog: append would leave an index gap")
	// errClosed reports an operation on a closed log.
	errClosed = errors.New("replog: log is closed")
)

// Record is one log entry: a monotone index and an opaque payload (by
// convention one JSON object, the state machine's mutation record).
type Record struct {
	Index   uint64
	Payload []byte
}

// envelope is the framed on-disk line: index, CRC-32C of the payload
// bytes, and the payload itself embedded as raw JSON.
type envelope struct {
	Index   uint64          `json:"i"`
	CRC     uint32          `json:"c"`
	Payload json.RawMessage `json:"p"`
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options tunes a log. The zero value selects the defaults below.
type Options struct {
	// SegmentMaxRecords rotates the active segment file after this many
	// appends (4096 when zero).
	SegmentMaxRecords int
	// Name labels the log in errors and metrics ("replog" when empty).
	Name string
}

// defaultSegmentMaxRecords is the segment rotation threshold.
const defaultSegmentMaxRecords = 4096

// Log is an append-only replicated log. All methods are safe for
// concurrent use. A Log opened with an empty dir is memory-only (used
// by follower replicas in tests and by the in-process cluster harness);
// otherwise dir holds snapshot and segment files.
type Log struct {
	mu     sync.Mutex
	cond   *sync.Cond // broadcast on append and on commit advance
	dir    string
	opts   Options
	closed bool

	snapIndex uint64   // every index <= snapIndex is folded into the snapshot
	recs      []Record // retained entries, recs[0].Index == snapIndex+1 when non-empty
	last      uint64   // highest appended index
	commit    uint64   // replication watermark (volatile, not persisted)
	term      uint64   // leadership term/epoch metadata (persisted as a marker file)

	active      *os.File // current segment (nil in memory mode)
	activeCount int      // records written to the active segment

	// Counters for the replog_* metric families (read via Stats).
	appends     uint64
	compactions uint64
}

// Stats is a point-in-time counter/gauge view of the log, consumed by
// the cluster metrics layer.
type Stats struct {
	LastIndex   uint64
	CommitIndex uint64
	SnapIndex   uint64
	Entries     int // retained (non-compacted) entries
	Appends     uint64
	Compactions uint64
}

// Open loads (or creates) a log. dir == "" opens a memory-only log.
// Leftover temp files from a crashed compaction are removed; when
// several snapshots survive a crash the newest wins and older snapshot
// and segment files below it are cleaned up. Records already covered by
// the snapshot are skipped; a torn final line in the newest segment is
// dropped.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentMaxRecords <= 0 {
		opts.SegmentMaxRecords = defaultSegmentMaxRecords
	}
	if opts.Name == "" {
		opts.Name = "replog"
	}
	l := &Log{dir: dir, opts: opts}
	l.cond = sync.NewCond(&l.mu)
	if dir == "" {
		return l, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%s: open: %w", opts.Name, err)
	}
	if err := l.load(); err != nil {
		return nil, err
	}
	return l, nil
}

func snapName(index uint64) string { return fmt.Sprintf("snapshot-%020d.jsonl", index) }
func segName(first uint64) string  { return fmt.Sprintf("seg-%020d.jsonl", first) }
func termName(term uint64) string  { return fmt.Sprintf("term-%020d", term) }

// parseIndexed extracts the number from a file name of the form
// prefix + digits + suffix.
func parseIndexed(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	var v uint64
	if _, err := fmt.Sscanf(mid, "%d", &v); err != nil {
		return 0, false
	}
	return v, true
}

// load scans dir and rebuilds the in-memory state.
func (l *Log) load() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	var snaps []uint64
	var segs []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.Contains(name, ".tmp-") {
			// A crashed compaction's temp file: never renamed, so never
			// part of the log. Remove it.
			os.Remove(filepath.Join(l.dir, name))
			continue
		}
		if v, ok := parseIndexed(name, "snapshot-", ".jsonl"); ok {
			snaps = append(snaps, v)
		} else if v, ok := parseIndexed(name, "seg-", ".jsonl"); ok {
			segs = append(segs, v)
		} else if v, ok := parseIndexed(name, "term-", ""); ok {
			// The highest surviving term marker wins; older ones are
			// leftovers from a crash between create and cleanup.
			if v > l.term {
				if l.term > 0 {
					os.Remove(filepath.Join(l.dir, termName(l.term)))
				}
				l.term = v
			} else {
				os.Remove(filepath.Join(l.dir, name))
			}
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	if len(snaps) > 0 {
		l.snapIndex = snaps[len(snaps)-1]
		l.last = l.snapIndex
		// Older snapshots are garbage from a crash between rename and
		// cleanup; finishing the cleanup here makes compaction
		// idempotent across crashes.
		for _, v := range snaps[:len(snaps)-1] {
			os.Remove(filepath.Join(l.dir, snapName(v)))
		}
	}
	for i, first := range segs {
		path := filepath.Join(l.dir, segName(first))
		recs, err := readSegment(path, i == len(segs)-1)
		if err != nil {
			return fmt.Errorf("%s: %s: %w", l.opts.Name, path, err)
		}
		keep := false
		for _, r := range recs {
			if r.Index <= l.snapIndex {
				continue // folded into the snapshot already
			}
			if r.Index != l.last+1 {
				return fmt.Errorf("%s: %s: index gap: have %d, next record %d",
					l.opts.Name, path, l.last, r.Index)
			}
			l.recs = append(l.recs, r)
			l.last = r.Index
			keep = true
		}
		if !keep && first <= l.snapIndex {
			// Fully compacted segment that survived a crash mid-cleanup.
			os.Remove(path)
		}
	}
	return nil
}

// readSegment parses one segment file; tolerateTorn drops an
// unparsable final line.
func readSegment(path string, tolerateTorn bool) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseRecords(f, tolerateTorn)
}

// parseRecords reads a framed JSONL record stream.
func parseRecords(r io.Reader, tolerateTorn bool) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var lines []string
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			lines = append(lines, s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var out []Record
	for i, line := range lines {
		rec, err := decodeLine([]byte(line))
		if err != nil {
			if tolerateTorn && i == len(lines)-1 {
				break // torn final append from a crash; drop it
			}
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// decodeLine parses one line as a framed envelope and checks its CRC.
func decodeLine(line []byte) (Record, error) {
	var env envelope
	if err := json.Unmarshal(line, &env); err != nil || len(env.Payload) == 0 || env.Index == 0 {
		return Record{}, fmt.Errorf("not a record envelope")
	}
	if crc32.Checksum(env.Payload, crcTable) != env.CRC {
		return Record{}, fmt.Errorf("CRC mismatch at index %d", env.Index)
	}
	return Record{Index: env.Index, Payload: append([]byte(nil), env.Payload...)}, nil
}

func encodeLine(rec Record) ([]byte, error) {
	if !json.Valid(rec.Payload) {
		return nil, fmt.Errorf("replog: payload is not valid JSON")
	}
	b, err := json.Marshal(envelope{
		Index:   rec.Index,
		CRC:     crc32.Checksum(rec.Payload, crcTable),
		Payload: json.RawMessage(rec.Payload),
	})
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Append assigns the next index to payload and appends it, returning
// the stored record. The payload must be one valid JSON value.
func (l *Log) Append(payload []byte) (Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return Record{}, errClosed
	}
	rec := Record{Index: l.last + 1, Payload: append([]byte(nil), payload...)}
	if err := l.appendLocked(rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// appendRecord appends a record at its own index (Journal.Apply:
// entries arrive from the leader already numbered). Appending at or
// below LastIndex is an idempotent no-op — the retry path after a lost
// ack; an index beyond LastIndex+1 is ErrGap.
func (l *Log) appendRecord(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errClosed
	}
	if rec.Index <= l.last {
		return nil
	}
	if rec.Index != l.last+1 {
		return fmt.Errorf("%w: have %d, got %d", ErrGap, l.last, rec.Index)
	}
	rec.Payload = append([]byte(nil), rec.Payload...)
	return l.appendLocked(rec)
}

func (l *Log) appendLocked(rec Record) error {
	line, err := encodeLine(rec) // memory and disk modes are equally strict
	if err != nil {
		return err
	}
	if l.dir != "" {
		if l.active == nil {
			if err := l.rotateLocked(rec.Index); err != nil {
				return err
			}
		}
		if _, err := l.active.Write(line); err != nil {
			return fmt.Errorf("%s: append: %w", l.opts.Name, err)
		}
		l.activeCount++
		if l.activeCount >= l.opts.SegmentMaxRecords {
			if err := l.rotateLocked(rec.Index + 1); err != nil {
				return err
			}
		}
	}
	l.recs = append(l.recs, rec)
	l.last = rec.Index
	l.appends++
	l.cond.Broadcast()
	return nil
}

// rotateLocked closes the active segment and opens a fresh one whose
// first record will be index first.
func (l *Log) rotateLocked(first uint64) error {
	if l.active != nil {
		if err := l.active.Sync(); err != nil {
			return err
		}
		l.active.Close()
		l.active = nil
	}
	f, err := os.OpenFile(filepath.Join(l.dir, segName(first)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("%s: rotate: %w", l.opts.Name, err)
	}
	l.active = f
	l.activeCount = 0
	return nil
}

// LastIndex returns the highest appended index (0 for an empty log).
func (l *Log) LastIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// Commit advances the replication watermark (monotone; lower values are
// ignored) and wakes WaitCommitted waiters.
func (l *Log) Commit(index uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if index > l.commit {
		l.commit = index
		l.cond.Broadcast()
	}
}

// WaitCommitted blocks until the commit index reaches index, the log is
// closed, or done is closed (the caller's deadline — a closed channel
// returns false immediately). It reports whether the index committed.
func (l *Log) WaitCommitted(index uint64, done <-chan struct{}) bool {
	// A watcher goroutine pokes the condition variable when done fires;
	// stopped on exit so abandoned waits don't leak.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-done:
			l.mu.Lock()
			l.cond.Broadcast()
			l.mu.Unlock()
		case <-stop:
		}
	}()
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.commit < index && !l.closed {
		select {
		case <-done:
			return false
		default:
		}
		l.cond.Wait()
	}
	return l.commit >= index
}

// Entries returns up to max records with Index > after, in index order
// (max <= 0 means no limit). Asking for entries already folded into the
// snapshot returns ErrCompacted — ship the snapshot instead.
func (l *Log) Entries(after uint64, max int) ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if after < l.snapIndex {
		return nil, fmt.Errorf("%w (snapshot at %d, asked after %d)", ErrCompacted, l.snapIndex, after)
	}
	start := int(after - l.snapIndex) // recs[0].Index == snapIndex+1
	if start >= len(l.recs) {
		return nil, nil
	}
	out := l.recs[start:]
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	// The records themselves are immutable once appended; copying the
	// slice header is enough.
	return append([]Record(nil), out...), nil
}

// Snapshot streams the current snapshot (the state at its index) to w
// and returns that index. A memory-only log, or one that never
// compacted, has none: ok is false and nothing is written.
func (l *Log) Snapshot(w io.Writer) (index uint64, ok bool, err error) {
	l.mu.Lock()
	snap, dir := l.snapIndex, l.dir
	l.mu.Unlock()
	if dir == "" {
		return 0, false, nil
	}
	f, err := os.Open(filepath.Join(dir, snapName(snap)))
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	if _, err := io.Copy(w, f); err != nil {
		return 0, false, err
	}
	return snap, true, nil
}

// Term returns the leadership term/epoch metadata attached to the log
// (0 when never set).
func (l *Log) Term() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.term
}

// SetTerm persists the leadership term/epoch as log metadata. Terms are
// monotone: a lower or equal term is an idempotent no-op. On disk the
// term is a marker file (term-<n>) created before the previous marker is
// removed, so a crash between the two leaves the newest term winning at
// the next Open.
func (l *Log) SetTerm(term uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errClosed
	}
	if term <= l.term {
		return nil
	}
	old := l.term
	if l.dir != "" {
		f, err := os.Create(filepath.Join(l.dir, termName(term)))
		if err != nil {
			return fmt.Errorf("%s: set term: %w", l.opts.Name, err)
		}
		f.Sync()
		f.Close()
		if d, err := os.Open(l.dir); err == nil {
			d.Sync()
			d.Close()
		}
		if old > 0 {
			os.Remove(filepath.Join(l.dir, termName(old)))
		}
	}
	l.term = term
	return nil
}

// reset replaces the log's entire contents with a snapshot at index
// (Journal.Restore): the catch-up of a follower behind the leader's
// compaction horizon, and the truncation resync of a diverged replica (a
// demoted leader whose tail carries records the new leader never
// acknowledged). Entries above index are discarded, and every segment
// file is dropped so a restart cannot replay a diverged tail.
func (l *Log) reset(index uint64, snapshot io.Reader) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errClosed
	}
	err := l.installSnapshotLocked(index, l.last, func(w io.Writer) error {
		_, err := io.Copy(w, snapshot)
		return err
	})
	if err != nil {
		return err
	}
	l.snapIndex, l.last, l.recs, l.commit = index, index, nil, index
	l.cond.Broadcast()
	return nil
}

// installSnapshotLocked makes the snapshot at index durable and then
// deletes what it replaces: every segment whose records are all <=
// through, and the previous snapshot.
//
// Crash safety: the snapshot lands via temp-file + fsync + rename, so a
// crash at any point leaves either the old snapshot+segments (rename
// not reached) or the new snapshot plus stale segment files. The next
// Open skips and removes those it covers; records past it that a reset
// meant to discard are re-detected as divergence by the replication
// layer on the next push.
func (l *Log) installSnapshotLocked(index, through uint64, write func(io.Writer) error) error {
	if l.dir == "" {
		return write(io.Discard)
	}
	if err := l.writeSnapshotLocked(index, write); err != nil {
		return err
	}
	if l.active != nil {
		l.active.Sync()
		l.active.Close()
		l.active = nil
		l.activeCount = 0
	}
	if entries, err := os.ReadDir(l.dir); err == nil {
		// A segment holds records from its first index up to the next
		// segment's first index - 1 (the log end for the last one).
		var segFirsts []uint64
		for _, e := range entries {
			if v, ok := parseIndexed(e.Name(), "seg-", ".jsonl"); ok {
				segFirsts = append(segFirsts, v)
			}
		}
		sort.Slice(segFirsts, func(i, j int) bool { return segFirsts[i] < segFirsts[j] })
		for i, first := range segFirsts {
			end := l.last
			if i+1 < len(segFirsts) {
				end = segFirsts[i+1] - 1
			}
			if end <= through {
				os.Remove(filepath.Join(l.dir, segName(first)))
			}
		}
	}
	if l.snapIndex != index {
		os.Remove(filepath.Join(l.dir, snapName(l.snapIndex)))
	}
	return nil
}

// writeSnapshotLocked writes the snapshot stream crash-safely: temp
// file in the same directory, fsync, atomic rename, directory fsync.
func (l *Log) writeSnapshotLocked(index uint64, write func(io.Writer) error) error {
	final := filepath.Join(l.dir, snapName(index))
	tmp, err := os.CreateTemp(l.dir, snapName(index)+".tmp-*")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(tmp)
	werr := write(bw)
	if werr == nil {
		werr = bw.Flush()
	}
	if werr == nil {
		werr = tmp.Sync()
	}
	if werr != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return werr
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if d, err := os.Open(l.dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// compact folds every entry at or below index into a fresh snapshot
// written by the state machine's snapshot callback, then truncates the
// log: fully covered segments and the old snapshot are deleted. The
// snapshot must reflect exactly the state after applying entries <=
// index — Journal.Compact calls it with the machine's lock held.
func (l *Log) compact(index uint64, snapshot func(io.Writer) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errClosed
	}
	if index > l.last {
		return fmt.Errorf("%s: compact at %d beyond log end %d", l.opts.Name, index, l.last)
	}
	if index < l.snapIndex {
		return fmt.Errorf("%s: compact at %d behind snapshot %d", l.opts.Name, index, l.snapIndex)
	}
	if err := l.installSnapshotLocked(index, index, snapshot); err != nil {
		return err
	}
	if drop := int(index - l.snapIndex); drop < len(l.recs) {
		l.recs = append([]Record(nil), l.recs[drop:]...)
	} else {
		l.recs = nil
	}
	l.snapIndex = index
	l.compactions++
	return nil
}

// replay restores the newest snapshot into m (when one exists) and
// applies every retained entry in index order. It is how a state
// machine loads from its log at startup.
func (l *Log) replay(m Machine) error {
	l.mu.Lock()
	dir, snap := l.dir, l.snapIndex
	recs := append([]Record(nil), l.recs...)
	l.mu.Unlock()
	if dir != "" {
		f, err := os.Open(filepath.Join(dir, snapName(snap)))
		if err == nil {
			rerr := m.ReadJSONL(f)
			f.Close()
			if rerr != nil {
				return fmt.Errorf("%s: restore snapshot %d: %w", l.opts.Name, snap, rerr)
			}
		} else if !os.IsNotExist(err) {
			return err
		}
	}
	for _, rec := range recs {
		if err := m.ApplyLogRecord(rec); err != nil {
			return fmt.Errorf("%s: apply entry %d: %w", l.opts.Name, rec.Index, err)
		}
	}
	return nil
}

// Stats returns the log's counters and gauges.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		LastIndex:   l.last,
		CommitIndex: l.commit,
		SnapIndex:   l.snapIndex,
		Entries:     len(l.recs),
		Appends:     l.appends,
		Compactions: l.compactions,
	}
}

// Close syncs and closes the active segment and wakes every waiter.
// Further mutations return errClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.cond.Broadcast()
	if l.active != nil {
		l.active.Sync()
		err := l.active.Close()
		l.active = nil
		return err
	}
	return nil
}
