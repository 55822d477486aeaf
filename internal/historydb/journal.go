package historydb

// This file is the collection side of replicated persistence. Every
// mutation appends one physical logRecord — documents with their
// already-assigned _id fields plus the post-mutation id watermark — to
// a bound internal/replog log. Replay is therefore a pure upsert with
// no re-derivation: a follower applying the same records converges on a
// byte-identical collection, which is what lets the crowd repository
// shard and replicate the performance database without a consensus
// protocol inside the store itself.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"gptunecrowd/internal/replog"
)

// logRecord is one replicated mutation. Insert records carry the stored
// documents (ids assigned) and the post-batch id watermark; delete
// records carry the removed ids; update records carry the full new
// versions of the changed documents.
type logRecord struct {
	Op     string     `json:"op"` // "insert" | "delete" | "update"
	Docs   []Document `json:"docs,omitempty"`
	IDs    []string   `json:"ids,omitempty"`
	NextID int64      `json:"next_id,omitempty"`
}

// watermarkKey marks the trailing metadata record a compaction snapshot
// carries (`{"<key>": <next id>}`): without it, deleting the
// highest-id documents and then compacting would rewind the id counter
// on replay to maxID+1 and reissue previously assigned _id values.
// ReadJSONL recognizes the record; snapshots without one (legacy files,
// pre-watermark logs) still load with the maxID+1 fallback.
const watermarkKey = "_historydb_next_id"

// BindLog attaches a replicated log: every subsequent mutation appends
// a physical record describing exactly what changed. Pass nil to
// detach.
func (c *Collection) BindLog(lg *replog.Log) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.log = lg
	c.logErr = nil
}

// Log returns the bound replicated log, if any.
func (c *Collection) Log() *replog.Log {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.log
}

// LogError returns the first append error the bound log produced, if
// any. Persistence failure does not block the collection; the operator
// is expected to surface this.
func (c *Collection) LogError() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.logErr
}

// journalLocked appends one mutation record to the bound log. Called
// with c.mu (write) held, so records land in mutation order. The first
// append error sticks.
func (c *Collection) journalLocked(rec logRecord) {
	if c.log == nil || c.logErr != nil {
		return
	}
	b, err := json.Marshal(rec)
	if err == nil {
		_, err = c.log.Append(b)
	}
	if err != nil {
		c.logErr = fmt.Errorf("historydb: journal %s: %w", c.name, err)
	}
}

// ApplyLogRecord applies one replicated-log entry to the collection —
// the follower path, and the incremental half of ReplayLog. Records are
// physical (ids pre-assigned), so apply is deterministic: the same
// entry stream always produces the same document slice.
func (c *Collection) ApplyLogRecord(rec replog.Record) error {
	var lr logRecord
	if err := json.Unmarshal(rec.Payload, &lr); err != nil {
		return fmt.Errorf("historydb: %s log entry %d: %w", c.name, rec.Index, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch lr.Op {
	case "insert":
		// Upsert by _id so a duplicated delivery is harmless.
		c.upsertLocked(lr.Docs, true)
		if lr.NextID > c.nextID {
			c.nextID = lr.NextID
		}
	case "delete":
		drop := make(map[string]bool, len(lr.IDs))
		for _, id := range lr.IDs {
			drop[id] = true
		}
		kept := make([]Document, 0, len(c.docs))
		for _, d := range c.docs {
			if drop[docID(d)] {
				continue
			}
			kept = append(kept, d)
		}
		c.setDocsLocked(kept)
	case "update":
		c.upsertLocked(lr.Docs, false)
	default:
		return fmt.Errorf("historydb: %s log entry %d: unknown op %q", c.name, rec.Index, lr.Op)
	}
	return nil
}

func docID(d Document) string {
	id, _ := d["_id"].(string)
	return id
}

// upsertLocked swaps each document in for the stored one carrying its
// _id and, when insert is set, appends those no stored document
// carries. The first replacement moves the collection to a fresh copy
// of the slice (copy-on-write: concurrent readers never observe an
// element change); plain appends — the follower and restart-replay hot
// path — cost one map lookup each.
func (c *Collection) upsertLocked(docs []Document, insert bool) {
	replaced := false
	for _, d := range docs {
		if i, ok := c.byID[docID(d)]; ok {
			if !replaced {
				c.docs = append([]Document(nil), c.docs...)
				replaced = true
			}
			c.docs[i] = d
		} else if insert {
			c.appendLocked(d)
		}
	}
	if replaced {
		c.setDocsLocked(c.docs)
	}
}

// ReplayLog replaces the collection contents from the log (snapshot
// restore plus entry-by-entry apply) and binds the log for subsequent
// mutations.
func (c *Collection) ReplayLog(lg *replog.Log) error {
	if err := lg.Replay(c.ReadJSONL, c.ApplyLogRecord); err != nil {
		return err
	}
	c.BindLog(lg)
	return nil
}

// CompactLog folds the bound log down to a single snapshot of the
// current contents. Snapshot and truncation happen under the write
// lock, so no mutation can slip between them.
func (c *Collection) CompactLog() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.log == nil {
		return nil
	}
	return c.log.Compact(c.log.LastIndex(), func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		enc := json.NewEncoder(bw)
		for _, d := range c.docs {
			if err := enc.Encode(d); err != nil {
				return err
			}
		}
		// Trailing id-watermark record (see watermarkKey).
		if err := enc.Encode(map[string]int64{watermarkKey: c.nextID}); err != nil {
			return err
		}
		return bw.Flush()
	})
}

// OpenLog opens the collection's replicated log at dir and loads the
// collection from it. The returned log is bound to the collection; the
// caller closes it on shutdown.
func (c *Collection) OpenLog(dir string, opts replog.Options) (*replog.Log, error) {
	if opts.Name == "" {
		opts.Name = c.name
	}
	lg, err := replog.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	if err := c.ReplayLog(lg); err != nil {
		lg.Close()
		return nil, err
	}
	return lg, nil
}
