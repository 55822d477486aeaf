package replog

// Tests for the leadership-term metadata and the truncation-resync
// Reset path the cluster's epoch-fenced failover builds on.

import (
	"fmt"
	"strings"
	"testing"
)

func TestTermPersistsAndIsMonotone(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Term(); got != 0 {
		t.Fatalf("fresh Term = %d, want 0", got)
	}
	if err := l.SetTerm(3); err != nil {
		t.Fatal(err)
	}
	// Lower and equal terms are idempotent no-ops, never regressions.
	if err := l.SetTerm(2); err != nil {
		t.Fatal(err)
	}
	if err := l.SetTerm(3); err != nil {
		t.Fatal(err)
	}
	if got := l.Term(); got != 3 {
		t.Fatalf("Term = %d, want 3", got)
	}
	mustAppend(t, l, `{"n":1}`)
	l.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Term(); got != 3 {
		t.Fatalf("reopened Term = %d, want 3", got)
	}
	if l2.LastIndex() != 1 {
		t.Fatalf("term marker disturbed the log: LastIndex = %d, want 1", l2.LastIndex())
	}
}

func TestTermSurvivesOnMemoryLog(t *testing.T) {
	l, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.SetTerm(7); err != nil {
		t.Fatal(err)
	}
	if got := l.Term(); got != 7 {
		t.Fatalf("Term = %d, want 7", got)
	}
}

func TestResetDiscardsDivergedTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentMaxRecords: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		mustAppend(t, l, fmt.Sprintf(`{"old":%d}`, i))
	}
	l.Commit(4)

	// Truncation resync: replace everything with the new leader's
	// snapshot at index 5 — the entries at 5 and 6 (the diverged tail)
	// must vanish even though 5 < LastIndex.
	snap := `{"state":"leader"}` + "\n"
	if err := l.reset(5, strings.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	if got := l.LastIndex(); got != 5 {
		t.Fatalf("LastIndex after Reset = %d, want 5", got)
	}
	if got := l.Stats().CommitIndex; got != 5 {
		t.Fatalf("CommitIndex after Reset = %d, want 5", got)
	}
	if err := l.appendRecord(Record{Index: 6, Payload: []byte(`{"new":6}`)}); err != nil {
		t.Fatal(err)
	}

	// A restart must replay the snapshot plus the new tail — never the
	// pre-Reset segments.
	l.Close()
	l2, err := Open(dir, Options{SegmentMaxRecords: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.LastIndex(); got != 6 {
		t.Fatalf("reopened LastIndex = %d, want 6", got)
	}
	var sb strings.Builder
	idx, ok, err := l2.Snapshot(&sb)
	if err != nil || !ok {
		t.Fatalf("Snapshot: ok=%v err=%v", ok, err)
	}
	if idx != 5 || sb.String() != snap {
		t.Fatalf("snapshot = %q at %d, want %q at 5", sb.String(), idx, snap)
	}
	recs, err := l2.Entries(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Payload) != `{"new":6}` {
		t.Fatalf("entries after snapshot = %v, want the single new record", payloads(recs))
	}
	for _, r := range recs {
		if strings.Contains(string(r.Payload), "old") {
			t.Fatalf("diverged tail survived Reset: %s", r.Payload)
		}
	}
}

func TestResetNilSnapshotEmptiesLog(t *testing.T) {
	l, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mustAppend(t, l, `{"n":1}`)
	mustAppend(t, l, `{"n":2}`)
	if err := l.reset(0, strings.NewReader("")); err != nil {
		t.Fatal(err)
	}
	if got := l.LastIndex(); got != 0 {
		t.Fatalf("LastIndex after empty Reset = %d, want 0", got)
	}
	rec := mustAppend(t, l, `{"n":1}`)
	if rec.Index != 1 {
		t.Fatalf("first append after empty Reset got index %d, want 1", rec.Index)
	}
}
