// Package replog is the replicated write-ahead log shared by the
// crowd repository's durable state machines (the task pool and the
// history store). It generalizes the task pool's original single-file
// JSONL WAL into a reusable package:
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
//     snapshot, then apply the surviving entries in index order.
//
// The on-disk format is read-compatible with the legacy single-file
// WALs this package replaces: a line that does not parse as a framed
// record envelope is treated as a bare payload with the next implicit
// index, so pre-existing JSONL files load as seed snapshots or legacy
// segments unchanged. A torn final line (a crash mid-append) is
// dropped, matching the old WAL semantics.
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
	// ErrGap reports an AppendRecord whose index would leave a hole in
	// the log (index > LastIndex()+1).
	ErrGap = errors.New("replog: append would leave an index gap")
	// ErrClosed reports an operation on a closed log.
	ErrClosed = errors.New("replog: log is closed")
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
	// appends (DefaultSegmentMaxRecords when zero).
	SegmentMaxRecords int
	// Name labels the log in errors and metrics ("replog" when empty).
	Name string
}

// DefaultSegmentMaxRecords is the segment rotation threshold.
const DefaultSegmentMaxRecords = 4096

func (o Options) segmentMax() int {
	if o.SegmentMaxRecords > 0 {
		return o.SegmentMaxRecords
	}
	return DefaultSegmentMaxRecords
}

func (o Options) name() string {
	if o.Name != "" {
		return o.Name
	}
	return "replog"
}

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
	l := &Log{dir: dir, opts: opts}
	l.cond = sync.NewCond(&l.mu)
	if dir == "" {
		return l, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%s: open: %w", opts.name(), err)
	}
	if err := l.load(); err != nil {
		return nil, err
	}
	return l, nil
}

func snapName(index uint64) string { return fmt.Sprintf("snapshot-%020d.jsonl", index) }
func segName(first uint64) string  { return fmt.Sprintf("seg-%020d.jsonl", first) }
func termName(term uint64) string  { return fmt.Sprintf("term-%020d", term) }

func parseTerm(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "term-") {
		return 0, false
	}
	var v uint64
	if _, err := fmt.Sscanf(strings.TrimPrefix(name, "term-"), "%d", &v); err != nil {
		return 0, false
	}
	return v, true
}

func parseIndexed(name, prefix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".jsonl") {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".jsonl")
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
		if v, ok := parseIndexed(name, "snapshot-"); ok {
			snaps = append(snaps, v)
		} else if v, ok := parseIndexed(name, "seg-"); ok {
			segs = append(segs, v)
		} else if v, ok := parseTerm(name); ok {
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
			return fmt.Errorf("%s: %s: %w", l.opts.name(), path, err)
		}
		keep := false
		for _, r := range recs {
			if r.Index <= l.snapIndex {
				continue // folded into the snapshot already
			}
			if r.Index != l.last+1 {
				return fmt.Errorf("%s: %s: index gap: have %d, next record %d",
					l.opts.name(), path, l.last, r.Index)
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

// readSegment parses one segment file. Legacy (unframed) lines become
// records with implicit sequential indices continuing from the last
// framed index seen; tolerateTorn drops an unparsable final line.
func readSegment(path string, tolerateTorn bool) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	first, _ := parseIndexed(filepath.Base(path), "seg-")
	return ParseRecords(f, first, tolerateTorn)
}

// ParseRecords reads a framed (or legacy unframed) JSONL record stream.
// nextIndex is the index to assign the first record if the stream turns
// out to be legacy-format; framed records carry their own indices.
func ParseRecords(r io.Reader, nextIndex uint64, tolerateTorn bool) ([]Record, error) {
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
		rec, err := decodeLine([]byte(line), nextIndex)
		if err != nil {
			if tolerateTorn && i == len(lines)-1 {
				break // torn final append from a crash; drop it
			}
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		out = append(out, rec)
		nextIndex = rec.Index + 1
	}
	return out, nil
}

// decodeLine parses one line as a framed envelope, falling back to a
// legacy bare payload at the implicit index. A line that looks framed
// (has the "i" and "c" keys) but fails its CRC is corruption, not
// legacy data.
func decodeLine(line []byte, implicit uint64) (Record, error) {
	var env envelope
	if err := json.Unmarshal(line, &env); err == nil && len(env.Payload) > 0 && env.Index > 0 {
		if crc32.Checksum(env.Payload, crcTable) != env.CRC {
			return Record{}, fmt.Errorf("CRC mismatch at index %d", env.Index)
		}
		return Record{Index: env.Index, Payload: append([]byte(nil), env.Payload...)}, nil
	}
	if !json.Valid(line) {
		return Record{}, fmt.Errorf("invalid JSON")
	}
	return Record{Index: implicit, Payload: append([]byte(nil), line...)}, nil
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
		return Record{}, ErrClosed
	}
	rec := Record{Index: l.last + 1, Payload: append([]byte(nil), payload...)}
	if err := l.appendLocked(rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// AppendRecord appends a record at its own index (the follower path:
// entries arrive from the leader already numbered). Appending at or
// below LastIndex is an idempotent no-op — the retry path after a lost
// ack; an index beyond LastIndex+1 is ErrGap.
func (l *Log) AppendRecord(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
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
	if l.active == nil && l.dir != "" {
		if err := l.rotateLocked(rec.Index); err != nil {
			return err
		}
	}
	if l.active != nil {
		line, err := encodeLine(rec)
		if err != nil {
			return err
		}
		if _, err := l.active.Write(line); err != nil {
			return fmt.Errorf("%s: append: %w", l.opts.name(), err)
		}
		l.activeCount++
		if l.activeCount >= l.opts.segmentMax() {
			if err := l.rotateLocked(rec.Index + 1); err != nil {
				return err
			}
		}
	} else if l.dir == "" {
		if _, err := encodeLine(rec); err != nil {
			return err // keep memory and disk modes equally strict
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
		return fmt.Errorf("%s: rotate: %w", l.opts.name(), err)
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

// SnapIndex returns the highest index folded into the snapshot.
func (l *Log) SnapIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapIndex
}

// CommitIndex returns the replication watermark.
func (l *Log) CommitIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commit
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

// WaitAppend blocks until LastIndex exceeds after, the log closes, or
// done is closed, returning the new last index (the replicator's
// streaming trigger).
func (l *Log) WaitAppend(after uint64, done <-chan struct{}) (uint64, bool) {
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
	for l.last <= after && !l.closed {
		select {
		case <-done:
			return l.last, false
		default:
		}
		l.cond.Wait()
	}
	return l.last, l.last > after
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

// Snapshot streams the current snapshot (the state at SnapIndex) to w
// and returns its index. A log that never compacted has no snapshot:
// ok is false and nothing is written.
func (l *Log) Snapshot(w io.Writer) (index uint64, ok bool, err error) {
	l.mu.Lock()
	snap := l.snapIndex
	dir := l.dir
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

// RestoreSnapshot replaces the log's contents with a snapshot taken at
// index (the follower catch-up path): retained entries at or below
// index are dropped, the snapshot stream is persisted, and the log
// continues from index. Entries above index must not exist (the caller
// installs a snapshot only when it is behind it).
func (l *Log) RestoreSnapshot(index uint64, snapshot io.Reader) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.last > index {
		return fmt.Errorf("%s: restore at %d behind log end %d", l.opts.name(), index, l.last)
	}
	if l.dir != "" {
		if err := l.writeSnapshotLocked(index, func(w io.Writer) error {
			_, err := io.Copy(w, snapshot)
			return err
		}); err != nil {
			return err
		}
	} else if snapshot != nil {
		if _, err := io.Copy(io.Discard, snapshot); err != nil {
			return err
		}
	}
	l.snapIndex = index
	l.last = index
	l.recs = nil
	l.cond.Broadcast()
	return nil
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
		return ErrClosed
	}
	if term <= l.term {
		return nil
	}
	old := l.term
	if l.dir != "" {
		f, err := os.Create(filepath.Join(l.dir, termName(term)))
		if err != nil {
			return fmt.Errorf("%s: set term: %w", l.opts.name(), err)
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

// Reset replaces the log's entire contents with a snapshot at index —
// the truncation-resync path for a diverged replica (a demoted leader
// whose tail carries records the new leader never acknowledged). Unlike
// RestoreSnapshot, entries above index are allowed and are discarded,
// and every segment file is dropped so a restart cannot replay the
// diverged tail. A nil snapshot resets to empty state at index.
func (l *Log) Reset(index uint64, snapshot io.Reader) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.dir != "" {
		if l.active != nil {
			l.active.Close()
			l.active = nil
			l.activeCount = 0
		}
		entries, err := os.ReadDir(l.dir)
		if err != nil {
			return err
		}
		oldSnap := l.snapIndex
		if err := l.writeSnapshotLocked(index, func(w io.Writer) error {
			if snapshot == nil {
				return nil
			}
			_, err := io.Copy(w, snapshot)
			return err
		}); err != nil {
			return err
		}
		// The new snapshot is durable; everything below is cleanup that a
		// crash may skip — leftover files are either skipped or re-detected
		// as divergence by the replication layer on the next push.
		for _, e := range entries {
			if _, ok := parseIndexed(e.Name(), "seg-"); ok {
				os.Remove(filepath.Join(l.dir, e.Name()))
			}
		}
		if oldSnap != index {
			os.Remove(filepath.Join(l.dir, snapName(oldSnap)))
		}
	} else if snapshot != nil {
		if _, err := io.Copy(io.Discard, snapshot); err != nil {
			return err
		}
	}
	l.snapIndex = index
	l.last = index
	l.recs = nil
	l.commit = index
	l.cond.Broadcast()
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

// Compact folds every entry at or below index into a fresh snapshot
// written by the state machine's snapshot callback, then truncates the
// log: fully covered segments and the old snapshot are deleted. The
// caller must guarantee the snapshot reflects exactly the state after
// applying entries <= index — the usual pattern is to call Compact with
// the state machine's lock held, passing its serializer.
//
// Crash safety: the snapshot lands via temp-file + fsync + rename, so a
// crash at any point leaves either the old snapshot+segments (rename
// not reached) or the new snapshot plus stale segment files that the
// next Open skips past and removes.
func (l *Log) Compact(index uint64, snapshot func(io.Writer) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if index > l.last {
		return fmt.Errorf("%s: compact at %d beyond log end %d", l.opts.name(), index, l.last)
	}
	if index < l.snapIndex {
		return fmt.Errorf("%s: compact at %d behind snapshot %d", l.opts.name(), index, l.snapIndex)
	}
	oldSnap := l.snapIndex
	if l.dir != "" {
		if err := l.writeSnapshotLocked(index, snapshot); err != nil {
			return err
		}
		// The snapshot is durable; everything below is cleanup that a
		// crash may skip and the next Open finishes.
		if l.active != nil {
			l.active.Sync()
			l.active.Close()
			l.active = nil
			l.activeCount = 0
		}
		entries, err := os.ReadDir(l.dir)
		if err == nil {
			// A segment is deletable when every record it holds is
			// <= index: its first index <= index and the next segment
			// starts at or below index+1 (or it is the last segment and
			// the log end is <= index).
			var segFirsts []uint64
			for _, e := range entries {
				if v, ok := parseIndexed(e.Name(), "seg-"); ok {
					segFirsts = append(segFirsts, v)
				}
			}
			sort.Slice(segFirsts, func(i, j int) bool { return segFirsts[i] < segFirsts[j] })
			for i, first := range segFirsts {
				end := l.last
				if i+1 < len(segFirsts) {
					end = segFirsts[i+1] - 1
				}
				if end <= index {
					os.Remove(filepath.Join(l.dir, segName(first)))
				}
			}
		}
		if oldSnap != index {
			os.Remove(filepath.Join(l.dir, snapName(oldSnap)))
		}
	} else if err := snapshot(io.Discard); err != nil {
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

// Replay restores the newest snapshot (restore is called only when one
// exists) and applies every retained entry in index order. It is how a
// state machine loads from its log at startup.
func (l *Log) Replay(restore func(io.Reader) error, apply func(Record) error) error {
	l.mu.Lock()
	dir := l.dir
	snap := l.snapIndex
	recs := append([]Record(nil), l.recs...)
	l.mu.Unlock()
	if dir != "" {
		f, err := os.Open(filepath.Join(dir, snapName(snap)))
		if err == nil {
			rerr := restore(f)
			f.Close()
			if rerr != nil {
				return fmt.Errorf("%s: restore snapshot %d: %w", l.opts.name(), snap, rerr)
			}
		} else if !os.IsNotExist(err) {
			return err
		}
	}
	for _, rec := range recs {
		if err := apply(rec); err != nil {
			return fmt.Errorf("%s: apply entry %d: %w", l.opts.name(), rec.Index, err)
		}
	}
	return nil
}

// Sync flushes the active segment to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active != nil {
		return l.active.Sync()
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
// Further mutations return ErrClosed.
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
