package replog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustAppend(t *testing.T, l *Log, payload string) Record {
	t.Helper()
	rec, err := l.Append([]byte(payload))
	if err != nil {
		t.Fatalf("Append(%s): %v", payload, err)
	}
	return rec
}

func payloads(recs []Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = string(r.Payload)
	}
	return out
}

func TestAppendAssignsMonotoneIndices(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 5; i++ {
		rec := mustAppend(t, l, fmt.Sprintf(`{"n":%d}`, i))
		if rec.Index != uint64(i) {
			t.Fatalf("record %d got index %d", i, rec.Index)
		}
	}
	if l.LastIndex() != 5 {
		t.Fatalf("LastIndex = %d, want 5", l.LastIndex())
	}
	recs, err := l.Entries(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{`{"n":3}`, `{"n":4}`, `{"n":5}`}
	if fmt.Sprint(payloads(recs)) != fmt.Sprint(want) {
		t.Fatalf("Entries(2) = %v, want %v", payloads(recs), want)
	}
}

func TestAppendRejectsInvalidJSON(t *testing.T) {
	l, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("not json")); err == nil {
		t.Fatal("Append(non-JSON) succeeded")
	}
}

func TestReopenRecoversEntriesAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentMaxRecords: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		mustAppend(t, l, fmt.Sprintf(`{"n":%d}`, i))
	}
	l.Close()

	l2, err := Open(dir, Options{SegmentMaxRecords: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastIndex() != 10 {
		t.Fatalf("reopened LastIndex = %d, want 10", l2.LastIndex())
	}
	recs, err := l2.Entries(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if want := fmt.Sprintf(`{"n":%d}`, i+1); string(r.Payload) != want {
			t.Fatalf("entry %d = %s, want %s", i, r.Payload, want)
		}
	}
}

func TestTornFinalLineIsDropped(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, `{"n":1}`)
	mustAppend(t, l, `{"n":2}`)
	l.Close()

	seg := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"i":3,"c":12,"p":{"trunc`) // torn mid-append
	f.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer l2.Close()
	if l2.LastIndex() != 2 {
		t.Fatalf("LastIndex = %d after torn tail, want 2", l2.LastIndex())
	}
	// The log must keep appending past the dropped record.
	if rec := mustAppend(t, l2, `{"n":3}`); rec.Index != 3 {
		t.Fatalf("append after torn tail got index %d, want 3", rec.Index)
	}
}

func TestCRCMismatchIsCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, `{"n":1}`)
	mustAppend(t, l, `{"n":2}`)
	l.Close()

	seg := filepath.Join(dir, segName(1))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the first record; its CRC no longer
	// matches, and since it is not the final line it must be an error.
	corrupted := bytes.Replace(b, []byte(`"n":1`), []byte(`"n":7`), 1)
	if bytes.Equal(corrupted, b) {
		t.Fatal("corruption did not apply")
	}
	os.WriteFile(seg, corrupted, 0o644)
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("Open on corrupted segment: err = %v, want CRC mismatch", err)
	}
}

func TestAppendRecordIdempotentAndGapChecked(t *testing.T) {
	l, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.appendRecord(Record{Index: 1, Payload: []byte(`{"a":1}`)}); err != nil {
		t.Fatal(err)
	}
	// Replay of an already-held index is a no-op.
	if err := l.appendRecord(Record{Index: 1, Payload: []byte(`{"a":1}`)}); err != nil {
		t.Fatalf("idempotent re-append: %v", err)
	}
	if l.LastIndex() != 1 {
		t.Fatalf("LastIndex = %d, want 1", l.LastIndex())
	}
	if err := l.appendRecord(Record{Index: 3, Payload: []byte(`{"a":3}`)}); err == nil {
		t.Fatal("gap append succeeded")
	}
}

func TestCommitWatermarkAndWaiters(t *testing.T) {
	l, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, `{"n":1}`)
	mustAppend(t, l, `{"n":2}`)
	done := make(chan struct{})
	got := make(chan bool, 1)
	go func() { got <- l.WaitCommitted(2, done) }()
	l.Commit(1)
	l.Commit(2)
	if ok := <-got; !ok {
		t.Fatal("WaitCommitted(2) = false after Commit(2)")
	}
	// Commit is monotone: a lower value does not regress.
	l.Commit(1)
	if l.Stats().CommitIndex != 2 {
		t.Fatalf("CommitIndex regressed to %d", l.Stats().CommitIndex)
	}
	// A closed done channel abandons the wait.
	closed := make(chan struct{})
	close(closed)
	if l.WaitCommitted(99, closed) {
		t.Fatal("WaitCommitted(99) with closed done = true")
	}
}

func TestCompactionTruncatesAndReplays(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentMaxRecords: 2})
	if err != nil {
		t.Fatal(err)
	}
	var state []string
	for i := 1; i <= 7; i++ {
		mustAppend(t, l, fmt.Sprintf(`{"n":%d}`, i))
		state = append(state, fmt.Sprintf(`{"n":%d}`, i))
	}
	// Snapshot = the state machine's own serialization: one line per
	// applied payload.
	snap := func(w io.Writer) error {
		for _, s := range state[:5] {
			fmt.Fprintln(w, s)
		}
		return nil
	}
	if err := l.compact(5, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Entries(3, 0); err == nil {
		t.Fatal("Entries below snapshot index succeeded")
	}
	recs, err := l.Entries(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Index != 6 {
		t.Fatalf("post-compaction entries = %+v", recs)
	}
	l.Close()

	// Reopen: replay must produce snapshot lines then entries 6..7.
	l2, err := Open(dir, Options{SegmentMaxRecords: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	replayed := &hashMachine{}
	if err := l2.replay(replayed); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(replayed.lines) != fmt.Sprint(state) {
		t.Fatalf("replay = %v, want %v", replayed.lines, state)
	}
}

// TestKillDuringCompaction simulates every crash point of a compaction
// by reconstructing the on-disk states it passes through and verifying
// each one reopens to the same logical log.
func TestKillDuringCompaction(t *testing.T) {
	build := func(t *testing.T) string {
		dir := t.TempDir()
		l, err := Open(dir, Options{SegmentMaxRecords: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 6; i++ {
			mustAppend(t, l, fmt.Sprintf(`{"n":%d}`, i))
		}
		l.Close()
		return dir
	}
	verify := func(t *testing.T, dir string) {
		t.Helper()
		l, err := Open(dir, Options{SegmentMaxRecords: 2})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer l.Close()
		replayed := &hashMachine{}
		if err := l.replay(replayed); err != nil {
			t.Fatal(err)
		}
		want := make([]string, 6)
		for i := range want {
			want[i] = fmt.Sprintf(`{"n":%d}`, i+1)
		}
		if fmt.Sprint(replayed.lines) != fmt.Sprint(want) {
			t.Fatalf("replay = %v, want %v", replayed.lines, want)
		}
	}

	t.Run("crash_before_rename", func(t *testing.T) {
		// The snapshot temp file was written but never renamed: the old
		// log must load untouched and the temp file must be cleaned up.
		dir := build(t)
		tmp := filepath.Join(dir, snapName(4)+".tmp-123")
		os.WriteFile(tmp, []byte("{\"n\":1}\n{\"n\":2}\n{\"n\":3}\n{\"n\":4}\n"), 0o644)
		verify(t, dir)
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Fatal("crashed compaction temp file survived reopen")
		}
	})

	t.Run("crash_after_rename_before_cleanup", func(t *testing.T) {
		// The new snapshot landed but old segments were not deleted:
		// replay must not double-apply the compacted entries, and the
		// stale segments must be removed.
		dir := build(t)
		var snap bytes.Buffer
		for i := 1; i <= 4; i++ {
			fmt.Fprintf(&snap, "{\"n\":%d}\n", i)
		}
		os.WriteFile(filepath.Join(dir, snapName(4)), snap.Bytes(), 0o644)
		verify(t, dir)
		if _, err := os.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
			t.Fatal("fully compacted segment survived reopen")
		}
	})

	t.Run("crash_between_snapshots", func(t *testing.T) {
		// Two snapshots on disk (the previous one was not deleted): the
		// newest must win, the older must be removed.
		dir := build(t)
		os.WriteFile(filepath.Join(dir, snapName(2)), []byte("{\"n\":1}\n{\"n\":2}\n"), 0o644)
		var snap bytes.Buffer
		for i := 1; i <= 4; i++ {
			fmt.Fprintf(&snap, "{\"n\":%d}\n", i)
		}
		os.WriteFile(filepath.Join(dir, snapName(4)), snap.Bytes(), 0o644)
		verify(t, dir)
		if _, err := os.Stat(filepath.Join(dir, snapName(2))); !os.IsNotExist(err) {
			t.Fatal("stale older snapshot survived reopen")
		}
	})
}

// TestUnframedLineIsCorruption: a valid JSON line that is not a record
// envelope is rejected wherever a torn append cannot explain it — only
// the final line of the newest segment is forgiven.
func TestUnframedLineIsCorruption(t *testing.T) {
	if _, err := parseRecords(strings.NewReader("{\"a\":1}\n{\"a\":2}\n"), true); err == nil {
		t.Fatal("unframed line before the final one accepted")
	}
	line, err := encodeLine(Record{Index: 1, Payload: []byte(`{"a":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	stream := string(line) + "{\"a\":2}\n"
	if _, err := parseRecords(strings.NewReader(stream), false); err == nil {
		t.Fatal("unframed final line accepted in a sealed segment")
	}
	recs, err := parseRecords(strings.NewReader(stream), true)
	if err != nil || len(recs) != 1 || recs[0].Index != 1 {
		t.Fatalf("torn-tolerant parse = %+v, %v; want the one framed record", recs, err)
	}
}

func TestRestoreSnapshotCatchUp(t *testing.T) {
	m, j := openHashJournal(t, "", Options{})
	if err := j.Restore(40, "{}\n", false); err != nil {
		t.Fatal(err)
	}
	if st := j.Log().Stats(); st.LastIndex != 40 || st.SnapIndex != 40 || m.Len() != 1 {
		t.Fatalf("after restore: %+v with %d lines, want last=snap=40 and 1 line", st, m.Len())
	}
	if err := j.Apply(Record{Index: 41, Payload: []byte(`{"n":41}`)}); err != nil {
		t.Fatal(err)
	}
	// A snapshot at or below the log end is a duplicate delivery.
	if err := j.Restore(40, "{}\n", false); err != nil {
		t.Fatal(err)
	}
	if last := j.Log().LastIndex(); last != 41 || m.Len() != 2 {
		t.Fatalf("stale snapshot was installed: last=%d lines=%d", last, m.Len())
	}
}

func TestCloseWakesWaiters(t *testing.T) {
	l, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	got := make(chan bool, 1)
	go func() { got <- l.WaitCommitted(5, done) }()
	l.Close()
	if ok := <-got; ok {
		t.Fatal("WaitCommitted = true after Close")
	}
	if _, err := l.Append([]byte(`{}`)); err != errClosed {
		t.Fatalf("Append after Close: %v, want errClosed", err)
	}
}

func TestStats(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mustAppend(t, l, `{"n":1}`)
	mustAppend(t, l, `{"n":2}`)
	l.Commit(1)
	if err := l.compact(1, func(w io.Writer) error { fmt.Fprintln(w, `{"n":1}`); return nil }); err != nil {
		t.Fatal(err)
	}
	s := l.Stats()
	if s.LastIndex != 2 || s.CommitIndex != 1 || s.SnapIndex != 1 || s.Entries != 1 ||
		s.Appends != 2 || s.Compactions != 1 {
		t.Fatalf("Stats = %+v", s)
	}
}

func TestSnapshotStream(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var buf bytes.Buffer
	if _, ok, _ := l.Snapshot(&buf); ok {
		t.Fatal("fresh log has a snapshot")
	}
	mustAppend(t, l, `{"n":1}`)
	if err := l.compact(1, func(w io.Writer) error { fmt.Fprintln(w, `{"n":1}`); return nil }); err != nil {
		t.Fatal(err)
	}
	idx, ok, err := l.Snapshot(&buf)
	if err != nil || !ok || idx != 1 {
		t.Fatalf("Snapshot = (%d, %v, %v)", idx, ok, err)
	}
	if buf.String() != "{\"n\":1}\n" {
		t.Fatalf("snapshot bytes = %q", buf.String())
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	rec := Record{Index: 12, Payload: []byte(`{"x":[1,2,3]}`)}
	line, err := encodeLine(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeLine(bytes.TrimSpace(line))
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != rec.Index || string(got.Payload) != string(rec.Payload) {
		t.Fatalf("round trip = %+v", got)
	}
	var env envelope
	if err := json.Unmarshal(bytes.TrimSpace(line), &env); err != nil {
		t.Fatal(err)
	}
	if env.CRC == 0 {
		t.Fatal("encoded line carries no CRC")
	}
}
