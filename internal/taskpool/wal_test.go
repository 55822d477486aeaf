package taskpool

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gptunecrowd/internal/replog"
)

// replay round-trips a pool through its JSONL form and returns the
// restored pool.
func replay(t *testing.T, p *Pool, clk *fakeClock) *Pool {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteJSONL(&buf); err != nil {
		t.Fatalf("write snapshot: %v", err)
	}
	q := New(Config{LeaseTTL: p.cfg.LeaseTTL, MaxAttempts: p.cfg.MaxAttempts, Now: clk.Now})
	if err := q.ReadJSONL(&buf); err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	return q
}

func TestSnapshotRoundTrip(t *testing.T) {
	clk := newFakeClock()
	p := testPool(clk, time.Minute, 3)
	a := mustSubmit(t, p, "alice", demoSpec(1))
	mustSubmit(t, p, "bob", demoSpec(2))
	l, _ := p.Lease("w1", MachineConstraint{})
	p.Complete(l.ID, l.LeaseToken, Result{BestY: 2.5, NumEvals: 4})

	q := replay(t, p, clk)
	if q.Len() != 2 {
		t.Fatalf("restored %d tasks", q.Len())
	}
	got, ok := q.Get(a)
	if !ok || got.State != StateCompleted || got.Result.BestY != 2.5 {
		t.Fatalf("restored task: %+v", got)
	}
	if ps, qs := p.Stats(), q.Stats(); ps != qs {
		t.Fatalf("stats drift: %+v vs %+v", ps, qs)
	}
	// The restored pool keeps serving: next id must not collide.
	id3 := mustSubmit(t, q, "carol", demoSpec(3))
	if id3 != "t3" {
		t.Fatalf("next id after restore: %s", id3)
	}
}

// openLog opens p's journal at dir ("" is memory-only) and returns the
// bound log.
func openLog(t *testing.T, p *Pool, dir string) *replog.Log {
	t.Helper()
	if err := p.Journal().Open(dir, replog.Options{}); err != nil {
		t.Fatalf("open: %v", err)
	}
	return p.Journal().Log()
}

// walStream binds the pool to a memory-only log and returns a reader of
// every record appended since, one JSON line each.
func walStream(t *testing.T, p *Pool) func() *bytes.Buffer {
	t.Helper()
	lg := openLog(t, p, "")
	t.Cleanup(func() { lg.Close() })
	return func() *bytes.Buffer {
		recs, err := lg.Entries(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		var wal bytes.Buffer
		for _, rec := range recs {
			wal.Write(rec.Payload)
			wal.WriteByte('\n')
		}
		return &wal
	}
}

func TestWALReplayEqualsLiveState(t *testing.T) {
	clk := newFakeClock()
	p := testPool(clk, 30*time.Second, 3)
	wal := walStream(t, p)

	for i := 0; i < 5; i++ {
		mustSubmit(t, p, "alice", demoSpec(int64(i)))
	}
	l1, _ := p.Lease("w1", MachineConstraint{})
	l2, _ := p.Lease("w2", MachineConstraint{})
	p.Complete(l1.ID, l1.LeaseToken, Result{BestY: 1})
	p.Fail(l2.ID, l2.LeaseToken, "oom", nil)
	l3, _ := p.Lease("w3", MachineConstraint{})
	clk.Advance(31 * time.Second)
	p.ExpireLeases() // l3 expires, requeued
	if err := p.Journal().Err(); err != nil {
		t.Fatalf("wal error: %v", err)
	}

	q := New(Config{LeaseTTL: 30 * time.Second, MaxAttempts: 3, Now: clk.Now})
	if err := q.ReadJSONL(wal()); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if ps, qs := p.Stats(), q.Stats(); ps != qs {
		t.Fatalf("stats drift: live %+v replay %+v", ps, qs)
	}
	// Queue order must survive replay: drain both pools and compare.
	var live, replayed []string
	for {
		l, _ := p.Lease("x", MachineConstraint{})
		if l == nil {
			break
		}
		live = append(live, l.ID)
	}
	for {
		l, _ := q.Lease("x", MachineConstraint{})
		if l == nil {
			break
		}
		replayed = append(replayed, l.ID)
	}
	if strings.Join(live, ",") != strings.Join(replayed, ",") {
		t.Fatalf("queue order drift: live %v replay %v", live, replayed)
	}
	if _, ok := q.Get(l3.ID); !ok {
		t.Fatal("expired task lost in replay")
	}
}

func TestReadJSONLToleratesTornTail(t *testing.T) {
	clk := newFakeClock()
	p := testPool(clk, time.Minute, 3)
	mustSubmit(t, p, "alice", demoSpec(1))
	var buf bytes.Buffer
	if err := p.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(`{"op":"task","task":{"id":"t2","st`) // torn append
	q := New(Config{})
	if err := q.ReadJSONL(&buf); err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if q.Len() != 1 {
		t.Fatalf("restored %d tasks, want 1", q.Len())
	}
}

func TestReadJSONLRejectsMidStreamCorruption(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("{\"op\":\"task\",\"task\":{\"id\":\"t1\",\"state\":\"queued\",\"spec\":{\"app\":\"demo\",\"budget\":1}}}\n")
	buf.WriteString("not json at all\n")
	buf.WriteString("{\"op\":\"counters\",\"counters\":{}}\n")
	q := New(Config{})
	if err := q.ReadJSONL(&buf); err == nil {
		t.Fatal("mid-stream corruption accepted")
	}
}

func TestOpenLogAndCompact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tasklog")
	clk := newFakeClock()

	p := testPool(clk, time.Minute, 3)
	lg := openLog(t, p, dir)
	id := mustSubmit(t, p, "alice", demoSpec(1))
	mustSubmit(t, p, "alice", demoSpec(2))
	l, _ := p.Lease("w1", MachineConstraint{})
	p.Complete(l.ID, l.LeaseToken, Result{BestY: 7})
	if err := p.Journal().Err(); err != nil {
		t.Fatalf("wal: %v", err)
	}
	lg.Close()

	// Simulate restart: a fresh pool replays the log directory.
	q := testPool(clk, time.Minute, 3)
	lg2 := openLog(t, q, dir)
	got, ok := q.Get(id)
	if !ok || got.State != StateCompleted || got.Result.BestY != 7 {
		t.Fatalf("restart lost state: %+v", got)
	}

	// Compact folds the log down to a snapshot; entries drop to zero.
	if n := lg2.Stats().Entries; n == 0 {
		t.Fatal("expected live entries before compaction")
	}
	if err := q.Journal().Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if n := lg2.Stats().Entries; n != 0 {
		t.Fatalf("compaction left %d live entries", n)
	}
	// Mutations after compaction append to the new segment.
	mustSubmit(t, q, "bob", demoSpec(3))
	if err := q.Journal().Err(); err != nil {
		t.Fatalf("wal after compact: %v", err)
	}
	lg2.Close()

	r := testPool(clk, time.Minute, 3)
	lg3 := openLog(t, r, dir)
	defer lg3.Close()
	if r.Len() != 3 {
		t.Fatalf("post-compact replay has %d tasks, want 3", r.Len())
	}
}

// TestApplyLogRecordFollowsLeader replays a leader pool's log entries
// one by one into a follower pool — the replication apply path — and
// checks the follower converges on the leader's exact state, including
// queue order.
func TestApplyLogRecordFollowsLeader(t *testing.T) {
	clk := newFakeClock()
	leader := testPool(clk, 30*time.Second, 3)
	lg := openLog(t, leader, "")
	defer lg.Close()

	for i := 0; i < 6; i++ {
		mustSubmit(t, leader, "alice", demoSpec(int64(i)))
	}
	l1, _ := leader.Lease("w1", MachineConstraint{})
	l2, _ := leader.Lease("w2", MachineConstraint{})
	leader.Complete(l1.ID, l1.LeaseToken, Result{BestY: 1})
	leader.Fail(l2.ID, l2.LeaseToken, "oom", nil)
	clk.Advance(31 * time.Second)
	leader.ExpireLeases()
	if err := leader.Journal().Err(); err != nil {
		t.Fatal(err)
	}

	follower := New(Config{LeaseTTL: 30 * time.Second, MaxAttempts: 3, Now: clk.Now})
	recs, err := lg.Entries(0, int(lg.LastIndex()))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := follower.ApplyLogRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if ls, fs := leader.Stats(), follower.Stats(); ls != fs {
		t.Fatalf("stats drift: leader %+v follower %+v", ls, fs)
	}
	var a, b bytes.Buffer
	if err := leader.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := follower.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("follower snapshot is not byte-identical to leader snapshot")
	}
	// Queue order must match too: drain both and compare.
	var lq, fq []string
	for {
		l, _ := leader.Lease("x", MachineConstraint{})
		if l == nil {
			break
		}
		lq = append(lq, l.ID)
	}
	for {
		l, _ := follower.Lease("x", MachineConstraint{})
		if l == nil {
			break
		}
		fq = append(fq, l.ID)
	}
	if strings.Join(lq, ",") != strings.Join(fq, ",") {
		t.Fatalf("queue order drift: leader %v follower %v", lq, fq)
	}
}

func TestWALRecordsAreValidJSONLines(t *testing.T) {
	clk := newFakeClock()
	p := testPool(clk, time.Minute, 3)
	wal := walStream(t, p)
	mustSubmit(t, p, "alice", demoSpec(1))
	l, _ := p.Lease("w", MachineConstraint{})
	p.Complete(l.ID, l.LeaseToken, Result{})
	for i, line := range strings.Split(strings.TrimSpace(wal().String()), "\n") {
		if !json.Valid([]byte(line)) {
			t.Fatalf("WAL line %d is not valid JSON: %q", i, line)
		}
	}
}

// TestJournalFailureIsReturned: a mutation whose records were not kept
// reports the error instead of its result, and the failure sticks.
func TestJournalFailureIsReturned(t *testing.T) {
	clk := newFakeClock()
	p := testPool(clk, time.Minute, 3)
	lg := openLog(t, p, t.TempDir())
	mustSubmit(t, p, "alice", demoSpec(1))
	lg.Close() // the next append fails

	if id, err := p.Submit("alice", demoSpec(2)); err == nil {
		t.Fatalf("submit acknowledged %s although the journal append failed", id)
	}
	first := p.Journal().Err()
	if first == nil {
		t.Fatal("the failed append did not stick")
	}
	if l, err := p.Lease("w", MachineConstraint{}); err != first {
		t.Fatalf("lease after the failure: %+v, %v; want the sticky %v", l, err, first)
	}
	if got := lg.LastIndex(); got != 2 {
		t.Fatalf("LastIndex = %d, want 2 (one task record, one counters record)", got)
	}
}
