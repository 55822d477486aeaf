package replog

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// hashMachine is a toy state machine for replay-determinism tests: the
// state is the ordered list of applied payload lines, and the state
// hash is the SHA-256 of the serialized stream (so "identical state"
// means byte-identical snapshots).
type hashMachine struct {
	lines []string
	// reject, when set, makes ApplyLogRecord refuse that payload.
	reject string
}

func (m *hashMachine) ApplyLogRecord(rec Record) error {
	if m.reject != "" && string(rec.Payload) == m.reject {
		return errors.New("hashMachine: rejected record")
	}
	m.lines = append(m.lines, string(rec.Payload))
	return nil
}

func (m *hashMachine) ReadJSONL(r io.Reader) error {
	var lines []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			if !json.Valid([]byte(s)) {
				return errors.New("hashMachine: bad snapshot line")
			}
			lines = append(lines, s)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	m.lines = lines
	return nil
}

func (m *hashMachine) Len() int { return len(m.lines) }

// journal returns a fresh machine and its journal opened at dir.
func openHashJournal(t *testing.T, dir string, opts Options) (*hashMachine, *Journal) {
	t.Helper()
	m := &hashMachine{}
	j := NewJournal(m, new(sync.Mutex), m.WriteJSONL)
	if err := j.Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	return m, j
}

func (m *hashMachine) WriteJSONL(w io.Writer) error {
	for _, l := range m.lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

func (m *hashMachine) hash() [32]byte {
	var sb strings.Builder
	m.WriteJSONL(&sb)
	return sha256.Sum256([]byte(sb.String()))
}

// TestReplayDeterminismProperty drives a log through randomized batch
// splits, restarts (close + reopen) and snapshot/compaction points, and
// checks that replaying the surviving files always reconstructs exactly
// the state produced by applying every payload in order.
func TestReplayDeterminismProperty(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			dir := t.TempDir()
			opts := Options{SegmentMaxRecords: 1 + rng.Intn(5)}
			oracle := &hashMachine{}                 // every payload applied in order
			live, j := openHashJournal(t, dir, opts) // the machine paired with the log
			total := 40 + rng.Intn(80)
			written := 0
			for written < total {
				batch := 1 + rng.Intn(7)
				for b := 0; b < batch && written < total; b++ {
					payload := fmt.Sprintf(`{"op":%d,"v":%d}`, written, rng.Intn(1000))
					rec := Record{Payload: []byte(payload)}
					oracle.ApplyLogRecord(rec)
					live.ApplyLogRecord(rec)
					if err := j.Append(json.RawMessage(payload)); err != nil {
						t.Fatal(err)
					}
					written++
				}
				switch rng.Intn(4) {
				case 0: // compact at the current head
					if err := j.Compact(); err != nil {
						t.Fatal(err)
					}
				case 1: // restart: close, reopen, replay from disk
					j.Log().Close()
					live, j = openHashJournal(t, dir, opts)
					if live.hash() != oracle.hash() {
						t.Fatalf("state diverged after restart at %d ops", written)
					}
				}
			}
			j.Log().Close()

			// Final check: a cold replay reconstructs the oracle exactly.
			replayed, j2 := openHashJournal(t, dir, opts)
			defer j2.Log().Close()
			if replayed.hash() != oracle.hash() {
				t.Fatalf("cold replay hash != oracle hash after %d ops", total)
			}
			if last := j2.Log().LastIndex(); last != uint64(total) {
				t.Fatalf("LastIndex = %d, want %d", last, total)
			}
		})
	}
}

// TestFollowerReplicationProperty streams a leader log into a follower
// log in randomized batch sizes with duplicated deliveries and follower
// restarts, optionally through a snapshot catch-up, and checks the
// follower's state hash equals the leader's.
func TestFollowerReplicationProperty(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(2000 + trial)))
			leaderSM, lj := openHashJournal(t, t.TempDir(), Options{SegmentMaxRecords: 1 + rng.Intn(4)})
			leader := lj.Log()
			defer leader.Close()
			total := 30 + rng.Intn(60)
			for i := 0; i < total; i++ {
				payload := fmt.Sprintf(`{"op":%d}`, i)
				leaderSM.ApplyLogRecord(Record{Payload: []byte(payload)})
				if err := lj.Append(json.RawMessage(payload)); err != nil {
					t.Fatal(err)
				}
				// Occasionally compact the leader mid-stream so late
				// followers must catch up via snapshot.
				if rng.Intn(10) == 0 {
					if err := lj.Compact(); err != nil {
						t.Fatal(err)
					}
				}
			}

			followerDir := t.TempDir()
			followerSM, fj := openHashJournal(t, followerDir, Options{})
			for fj.Log().LastIndex() < leader.LastIndex() {
				recs, err := leader.Entries(fj.Log().LastIndex(), 1+rng.Intn(9))
				if errors.Is(err, ErrCompacted) {
					var snap strings.Builder
					idx, ok, serr := leader.Snapshot(&snap)
					if serr != nil || !ok {
						t.Fatalf("snapshot catch-up: ok=%v err=%v", ok, serr)
					}
					if err := fj.Restore(idx, snap.String(), false); err != nil {
						t.Fatal(err)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				// Deliver the batch, sometimes twice (duplicated
				// delivery after a lost ack must be harmless).
				for pass := 0; pass < 1+rng.Intn(2); pass++ {
					for _, rec := range recs {
						if err := fj.Apply(rec); err != nil {
							t.Fatal(err)
						}
					}
				}
				// Occasional follower restart from its own disk.
				if rng.Intn(6) == 0 {
					fj.Log().Close()
					followerSM, fj = openHashJournal(t, followerDir, Options{})
				}
			}
			defer fj.Log().Close()
			if followerSM.hash() != leaderSM.hash() {
				t.Fatalf("follower state hash != leader state hash (%d entries)", total)
			}
		})
	}
}
