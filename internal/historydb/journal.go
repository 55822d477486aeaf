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
	"encoding/json"
	"fmt"

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

// watermarkKey marks the trailing metadata record a snapshot carries
// (`{"<key>": <next id>}`): without it, deleting the highest-id
// documents and then compacting would rewind the id counter on replay
// to maxID+1 and reissue previously assigned _id values. ReadJSONL
// recognizes the record; streams without one load with the maxID+1
// fallback.
const watermarkKey = "_historydb_next_id"

// Journal returns the collection's journal; unbound, the collection is
// memory-only. Every mutation appends its record before it becomes
// visible, and one whose append fails is not applied.
func (c *Collection) Journal() *replog.Journal { return c.journal }

// ApplyLogRecord applies one replicated-log entry to the collection —
// the follower path, and the incremental half of replay. Records are
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
