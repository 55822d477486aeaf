package replog

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestJournalFollowerInvariant drives the follower operations through
// the cases replication produces and checks, after each, the invariant
// the apply path acknowledges by: LastIndex covers an index only when
// both the log and the machine hold it.
func TestJournalFollowerInvariant(t *testing.T) {
	rec := func(i uint64) Record { return Record{Index: i, Payload: []byte(fmt.Sprintf(`{"n":%d}`, i))} }
	cases := []struct {
		name      string
		step      func(j *Journal) error
		wantErr   error  // errors.Is target; nil with wantFail false means success
		wantFail  bool   // any error
		wantLast  uint64 // log head afterwards
		wantLines []string
	}{
		{
			name:      "next record is applied to both",
			step:      func(j *Journal) error { return j.Apply(rec(4)) },
			wantLast:  4,
			wantLines: []string{`{"n":1}`, `{"n":2}`, `{"n":3}`, `{"n":4}`},
		},
		{
			name:      "duplicate delivery is a no-op",
			step:      func(j *Journal) error { return j.Apply(rec(2)) },
			wantLast:  3,
			wantLines: []string{`{"n":1}`, `{"n":2}`, `{"n":3}`},
		},
		{
			name:      "gap is ErrGap and reaches neither",
			step:      func(j *Journal) error { return j.Apply(rec(5)) },
			wantErr:   ErrGap,
			wantFail:  true,
			wantLast:  3,
			wantLines: []string{`{"n":1}`, `{"n":2}`, `{"n":3}`},
		},
		{
			name: "record the machine rejects is not acknowledged",
			step: func(j *Journal) error {
				j.Machine().(*hashMachine).reject = `{"n":4}`
				return j.Apply(rec(4))
			},
			wantFail:  true,
			wantLast:  3,
			wantLines: []string{`{"n":1}`, `{"n":2}`, `{"n":3}`},
		},
		{
			name:      "snapshot ahead of the log replaces both",
			step:      func(j *Journal) error { return j.Restore(9, "{\"s\":9}\n", false) },
			wantLast:  9,
			wantLines: []string{`{"s":9}`},
		},
		{
			name:      "snapshot at or below the log is a duplicate delivery",
			step:      func(j *Journal) error { return j.Restore(2, "{\"s\":2}\n", false) },
			wantLast:  3,
			wantLines: []string{`{"n":1}`, `{"n":2}`, `{"n":3}`},
		},
		{
			name:      "force reset discards the tail above the snapshot",
			step:      func(j *Journal) error { return j.Restore(1, "{\"s\":1}\n", true) },
			wantLast:  1,
			wantLines: []string{`{"s":1}`},
		},
		{
			name:      "force reset to the empty state",
			step:      func(j *Journal) error { return j.Restore(0, "", true) },
			wantLast:  0,
			wantLines: nil,
		},
		{
			name:      "snapshot the machine rejects reaches neither",
			step:      func(j *Journal) error { return j.Restore(9, "not json\n", true) },
			wantFail:  true,
			wantLast:  3,
			wantLines: []string{`{"n":1}`, `{"n":2}`, `{"n":3}`},
		},
	}
	for _, dir := range []string{"memory", "disk"} {
		for _, tc := range cases {
			t.Run(dir+"/"+tc.name, func(t *testing.T) {
				path := ""
				if dir == "disk" {
					path = t.TempDir()
				}
				m, j := openHashJournal(t, path, Options{SegmentMaxRecords: 2})
				defer j.Log().Close()
				for i := uint64(1); i <= 3; i++ {
					if err := j.Apply(rec(i)); err != nil {
						t.Fatal(err)
					}
				}
				err := tc.step(j)
				if (err != nil) != tc.wantFail {
					t.Fatalf("err = %v, want failure %v", err, tc.wantFail)
				}
				if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				if got := j.Log().LastIndex(); got != tc.wantLast {
					t.Fatalf("LastIndex = %d, want %d", got, tc.wantLast)
				}
				if fmt.Sprint(m.lines) != fmt.Sprint(tc.wantLines) {
					t.Fatalf("machine = %v, want %v", m.lines, tc.wantLines)
				}
				if j.Err() != nil {
					t.Fatalf("a refused delivery fail-stopped the journal: %v", j.Err())
				}
				if path == "" {
					return
				}
				// What the follower acknowledged is what a restart replays.
				j.Log().Close()
				m2, j2 := openHashJournal(t, path, Options{SegmentMaxRecords: 2})
				defer j2.Log().Close()
				if got := j2.Log().LastIndex(); got != tc.wantLast || fmt.Sprint(m2.lines) != fmt.Sprint(tc.wantLines) {
					t.Fatalf("after restart: last=%d machine=%v, want %d %v", got, m2.lines, tc.wantLast, tc.wantLines)
				}
			})
		}
	}
}

// TestJournalFailStop: the first failed log write is returned, sticks,
// and every later operation refuses with it — on the leader's append
// path and on the follower's.
func TestJournalFailStop(t *testing.T) {
	t.Run("append", func(t *testing.T) {
		_, j := openHashJournal(t, t.TempDir(), Options{})
		if err := j.Append(json.RawMessage(`{"n":1}`)); err != nil {
			t.Fatal(err)
		}
		j.Log().Close() // the disk goes away under the journal
		first := j.Append(json.RawMessage(`{"n":2}`))
		if !errors.Is(first, errClosed) {
			t.Fatalf("append on a dead log: %v, want errClosed", first)
		}
		if j.Err() != first {
			t.Fatalf("Err = %v, want the first failure %v", j.Err(), first)
		}
		for name, op := range map[string]func() error{
			"Append":  func() error { return j.Append(json.RawMessage(`{"n":3}`)) },
			"Apply":   func() error { return j.Apply(Record{Index: 2, Payload: []byte(`{"n":2}`)}) },
			"Restore": func() error { return j.Restore(5, "", true) },
			"Compact": j.Compact,
		} {
			if err := op(); err != first {
				t.Errorf("%s after the failure: %v, want the sticky %v", name, err, first)
			}
		}
		if got := j.Log().LastIndex(); got != 1 {
			t.Fatalf("LastIndex = %d, want 1", got)
		}
	})
	t.Run("apply", func(t *testing.T) {
		m, j := openHashJournal(t, t.TempDir(), Options{})
		j.Log().Close()
		// The machine takes the record, the log cannot: the two have
		// parted, which only a fail-stop may answer.
		err := j.Apply(Record{Index: 1, Payload: []byte(`{"n":1}`)})
		if !errors.Is(err, errClosed) || j.Err() != err {
			t.Fatalf("apply on a dead log: %v (Err %v), want a sticky errClosed", err, j.Err())
		}
		if got := j.Log().LastIndex(); got != 0 || m.Len() != 1 {
			t.Fatalf("last=%d machine=%d, want the unacknowledged 0 beside a machine of 1", got, m.Len())
		}
	})
	t.Run("unbound", func(t *testing.T) {
		m := &hashMachine{}
		j := NewJournal(m, new(sync.Mutex), m.WriteJSONL)
		if err := j.Append(json.RawMessage(`{"n":1}`)); err != nil {
			t.Fatalf("unbound append: %v", err)
		}
		if err := j.Compact(); err != nil || j.Log() != nil {
			t.Fatalf("unbound compact: %v, log %v", err, j.Log())
		}
	})
}
