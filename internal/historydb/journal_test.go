package historydb

import (
	"bytes"
	"path/filepath"
	"testing"

	"gptunecrowd/internal/replog"
)

// openLog opens c's journal at dir ("" is memory-only) and returns the
// bound log.
func openLog(t *testing.T, c *Collection, dir string) *replog.Log {
	t.Helper()
	if err := c.Journal().Open(dir, replog.Options{}); err != nil {
		t.Fatal(err)
	}
	return c.Journal().Log()
}

func snapshotBytes(t *testing.T, c *Collection) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestJournalReplayMatchesLive drives a collection through inserts,
// updates and deletes with a bound log, then replays the log into a
// fresh collection and checks the result is byte-identical.
func TestJournalReplayMatchesLive(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "evals-log")
	live := NewCollection("func_evals")
	lg := openLog(t, live, dir)

	for i := 0; i < 10; i++ {
		if _, err := live.Insert(Document{"n": i, "keep": i%2 == 0}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := live.InsertMany([]Document{{"n": 100}, {"n": 101}}); err != nil {
		t.Fatal(err)
	}
	live.Update(Eq("n", float64(100)), func(d Document) { d["touched"] = true })
	if removed, err := live.Delete(Eq("keep", false)); removed != 5 || err != nil {
		t.Fatalf("removed %d (%v), want 5", removed, err)
	}
	if err := live.Journal().Err(); err != nil {
		t.Fatal(err)
	}
	lg.Close()

	restored := NewCollection("func_evals")
	lg2 := openLog(t, restored, dir)
	defer lg2.Close()
	if !bytes.Equal(snapshotBytes(t, live), snapshotBytes(t, restored)) {
		t.Fatal("replayed collection differs from live collection")
	}
	// Ids keep advancing from the replayed watermark, no collisions.
	id, err := restored.Insert(Document{"n": 999})
	if err != nil {
		t.Fatal(err)
	}
	if id != "13" {
		t.Fatalf("next id after replay = %s, want 13", id)
	}
}

// TestJournalFollowerApply streams a leader collection's entries into a
// follower via ApplyLogRecord — with a duplicated delivery — and checks
// byte-identical convergence.
func TestJournalFollowerApply(t *testing.T) {
	leader := NewCollection("c")
	lg := openLog(t, leader, "")
	defer lg.Close()

	for i := 0; i < 6; i++ {
		if _, err := leader.Insert(Document{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	leader.Update(Eq("i", float64(3)), func(d Document) { d["i"] = 33 })
	leader.Delete(Eq("i", float64(0)))

	follower := NewCollection("c")
	recs, err := lg.Entries(0, int(lg.LastIndex()))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := follower.ApplyLogRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Re-deliver the whole stream: upsert semantics make it a no-op.
	for _, rec := range recs {
		if err := follower.ApplyLogRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(snapshotBytes(t, leader), snapshotBytes(t, follower)) {
		t.Fatal("follower differs from leader after apply")
	}
}

// TestJournalCompaction folds the log to a snapshot and checks a
// replay from the compacted log still reconstructs the collection.
func TestJournalCompaction(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log")
	c := NewCollection("c")
	lg := openLog(t, c, dir)
	for i := 0; i < 20; i++ {
		if _, err := c.Insert(Document{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	c.Delete(Eq("i", float64(7)))
	if err := c.Journal().Compact(); err != nil {
		t.Fatal(err)
	}
	if n := lg.Stats().Entries; n != 0 {
		t.Fatalf("compaction left %d live entries", n)
	}
	// Mutations keep appending after compaction.
	if _, err := c.Insert(Document{"i": 999}); err != nil {
		t.Fatal(err)
	}
	if err := c.Journal().Err(); err != nil {
		t.Fatal(err)
	}
	lg.Close()

	r := NewCollection("c")
	lg2 := openLog(t, r, dir)
	defer lg2.Close()
	if !bytes.Equal(snapshotBytes(t, c), snapshotBytes(t, r)) {
		t.Fatal("post-compaction replay differs")
	}
}

func TestJournalUnknownOpRejected(t *testing.T) {
	c := NewCollection("c")
	err := c.ApplyLogRecord(replog.Record{Index: 1, Payload: []byte(`{"op":"zap"}`)})
	if err == nil {
		t.Fatal("unknown op accepted")
	}
	if err := c.ApplyLogRecord(replog.Record{Index: 2, Payload: []byte("{")}); err == nil {
		t.Fatal("bad payload accepted")
	}
}

// TestCompactionPreservesIDWatermark: deleting the highest-id documents
// and then compacting must not rewind the id counter — a reopened
// collection would otherwise reissue previously assigned _id values.
func TestCompactionPreservesIDWatermark(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wm-log")
	live := NewCollection("c")
	lg := openLog(t, live, dir)
	for i := 0; i < 5; i++ {
		if _, err := live.Insert(Document{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	// Documents i=3,4 hold the highest ids ("4","5"); drop them, then
	// fold the log down to a snapshot of the survivors.
	for _, i := range []float64{3, 4} {
		if removed, err := live.Delete(Eq("i", i)); removed != 1 || err != nil {
			t.Fatalf("removed %d docs for i=%v (%v), want 1", removed, i, err)
		}
	}
	if err := live.Journal().Compact(); err != nil {
		t.Fatal(err)
	}
	if err := live.Journal().Err(); err != nil {
		t.Fatal(err)
	}
	lg.Close()

	restored := NewCollection("c")
	lg2 := openLog(t, restored, dir)
	defer lg2.Close()
	if id, err := restored.Insert(Document{"i": 99}); err != nil {
		t.Fatal(err)
	} else if id != "6" {
		t.Fatalf("id after compaction+reopen = %q, want \"6\" (watermark regressed)", id)
	}
}

// TestJournalFailureRefusesMutations: once the log under a collection
// stops taking appends, no mutation is applied and InsertMany says so —
// the write path has an error to act on instead of a silent gap.
func TestJournalFailureRefusesMutations(t *testing.T) {
	c := NewCollection("c")
	lg := openLog(t, c, t.TempDir())
	if _, err := c.InsertMany([]Document{{"i": 1}, {"i": 2}}); err != nil {
		t.Fatal(err)
	}
	before := snapshotBytes(t, c)
	lg.Close() // the next append fails

	if ids, err := c.InsertMany([]Document{{"i": 3}}); err == nil {
		t.Fatalf("insert acknowledged ids %v although the journal append failed", ids)
	}
	if c.Journal().Err() == nil {
		t.Fatal("the failed append did not stick")
	}
	if n, err := c.Delete(Eq("i", float64(1))); n != 0 || err == nil {
		t.Fatalf("delete removed %d documents the journal did not record (err %v)", n, err)
	}
	if n, err := c.Update(nil, func(d Document) { d["touched"] = true }); n != 0 || err == nil {
		t.Fatalf("update changed %d documents the journal did not record (err %v)", n, err)
	}
	if !bytes.Equal(before, snapshotBytes(t, c)) {
		t.Fatal("collection changed although nothing could be journaled")
	}
	if lg.LastIndex() != 1 {
		t.Fatalf("LastIndex = %d, want 1", lg.LastIndex())
	}
}
