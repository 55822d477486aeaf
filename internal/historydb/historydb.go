// Package historydb is the storage engine of the shared performance
// database: a concurrency-safe JSON document store with a typed query
// language (the role MongoDB plays in the paper's deployment, Section
// III). Documents are arbitrary JSON objects; queries are composable
// condition trees over dotted field paths; collections persist as JSONL.
package historydb

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"gptunecrowd/internal/replog"
)

// Document is a JSON object. The store assigns each inserted document a
// unique "_id" field (a monotonically increasing integer rendered as a
// string).
type Document = map[string]interface{}

// Collection is a set of documents with insert/find/delete operations.
// All methods are safe for concurrent use.
//
// Concurrency model: stored documents are immutable — Insert stores a
// deep copy, Update replaces a document with a mutated copy, and Delete
// rebuilds the slice. Readers therefore only need the lock long enough
// to snapshot the slice header; matching and result copying run outside
// the lock, so large scans never starve writers.
type Collection struct {
	mu     sync.RWMutex
	name   string
	docs   []Document
	nextID int64
	log    *replog.Log
	logErr error
}

// snapshot returns the current document slice. The header copy is done
// under the read lock; the documents themselves are immutable, and
// appends past the snapshot's length are invisible to it, so the caller
// may iterate without holding any lock.
func (c *Collection) snapshot() []Document {
	c.mu.RLock()
	docs := c.docs
	c.mu.RUnlock()
	return docs
}

// NewCollection returns an empty collection.
func NewCollection(name string) *Collection {
	return &Collection{name: name, nextID: 1}
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// Len returns the number of stored documents.
func (c *Collection) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.docs)
}

// Insert stores a deep copy of doc and returns its assigned id.
func (c *Collection) Insert(doc Document) (string, error) {
	cp, err := deepCopy(doc)
	if err != nil {
		return "", fmt.Errorf("historydb: insert into %s: %w", c.name, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	id := fmt.Sprintf("%d", c.nextID)
	c.nextID++
	cp["_id"] = id
	c.docs = append(c.docs, cp)
	c.journalLocked(logRecord{Op: "insert", Docs: []Document{cp}, NextID: c.nextID})
	return id, nil
}

// InsertMany stores deep copies of docs atomically: either every
// document is inserted (with consecutive ids, in order) or none is, and
// no concurrent reader ever observes a partially applied batch. The
// deep copies are taken before the write lock so serialization cost is
// not paid under contention.
func (c *Collection) InsertMany(docs []Document) ([]string, error) {
	cps := make([]Document, len(docs))
	for i, d := range docs {
		cp, err := deepCopy(d)
		if err != nil {
			return nil, fmt.Errorf("historydb: insert into %s: %w", c.name, err)
		}
		cps[i] = cp
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]string, len(cps))
	for i, cp := range cps {
		id := fmt.Sprintf("%d", c.nextID)
		c.nextID++
		cp["_id"] = id
		ids[i] = id
		c.docs = append(c.docs, cp)
	}
	if len(cps) > 0 {
		c.journalLocked(logRecord{Op: "insert", Docs: cps, NextID: c.nextID})
	}
	return ids, nil
}

// Find returns deep copies of all documents matching q, in insertion
// order. A nil query matches everything.
func (c *Collection) Find(q Query) ([]Document, error) {
	return c.FindContext(context.Background(), q)
}

// FindContext is Find with cancellation: the scan checks ctx
// periodically so an expired request deadline aborts instead of
// copying the rest of a large collection. The whole scan runs on an
// immutable snapshot, outside the collection lock.
func (c *Collection) FindContext(ctx context.Context, q Query) ([]Document, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var out []Document
	for i, d := range c.snapshot() {
		if i&255 == 255 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if q == nil || q.Match(d) {
			cp, err := deepCopy(d)
			if err != nil {
				return nil, err
			}
			out = append(out, cp)
		}
	}
	return out, nil
}

// FindOne returns the first match, or nil.
func (c *Collection) FindOne(q Query) (Document, error) {
	docs, err := c.Find(q)
	if err != nil || len(docs) == 0 {
		return nil, err
	}
	return docs[0], nil
}

// Count returns the number of matching documents.
func (c *Collection) Count(q Query) int {
	n := 0
	for _, d := range c.snapshot() {
		if q == nil || q.Match(d) {
			n++
		}
	}
	return n
}

// Delete removes matching documents and returns how many were removed.
// The kept documents move to a fresh slice so concurrent snapshot
// readers keep seeing the pre-delete state.
func (c *Collection) Delete(q Query) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := make([]Document, 0, len(c.docs))
	removed := 0
	var removedIDs []string
	for _, d := range c.docs {
		if q != nil && q.Match(d) {
			removed++
			if id := docID(d); id != "" {
				removedIDs = append(removedIDs, id)
			}
			continue
		}
		kept = append(kept, d)
	}
	c.docs = kept
	if removed > 0 {
		c.journalLocked(logRecord{Op: "delete", IDs: removedIDs})
	}
	return removed
}

// Update applies fn to a copy of every matching document and swaps the
// copy in (copy-on-write), returning the number updated. Stored
// documents stay immutable, so concurrent snapshot readers see either
// the old or the new version, never a half-applied mutation.
func (c *Collection) Update(q Query, fn func(Document)) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	// A fresh slice, not in-place writes: outstanding snapshots share
	// the old backing array and must not observe element swaps.
	next := make([]Document, len(c.docs))
	copy(next, c.docs)
	n := 0
	var updated []Document
	for i, d := range next {
		if q == nil || q.Match(d) {
			cp, err := deepCopy(d)
			if err != nil {
				continue
			}
			fn(cp)
			next[i] = cp
			n++
			updated = append(updated, cp)
		}
	}
	c.docs = next
	if n > 0 {
		c.journalLocked(logRecord{Op: "update", Docs: updated})
	}
	return n
}

// WriteJSONL serializes the collection, one document per line. It
// serializes a snapshot, so a persistence flush never blocks traffic.
func (c *Collection) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, d := range c.snapshot() {
		if err := enc.Encode(d); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL replaces the collection contents from a JSONL stream,
// preserving existing _id fields and advancing the id counter past
// them. A compaction snapshot's trailing watermark record (see
// watermarkKey) restores the exact counter; streams without one —
// legacy files, pre-watermark snapshots — fall back to maxID+1.
func (c *Collection) ReadJSONL(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var docs []Document
	maxID := int64(0)
	watermark := int64(0)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var d Document
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			return fmt.Errorf("historydb: bad JSONL line: %w", err)
		}
		if v, ok := d[watermarkKey].(float64); ok && len(d) == 1 {
			if int64(v) > watermark {
				watermark = int64(v)
			}
			continue
		}
		if ids, ok := d["_id"].(string); ok {
			var v int64
			fmt.Sscanf(ids, "%d", &v)
			if v > maxID {
				maxID = v
			}
		}
		docs = append(docs, d)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.docs = docs
	c.nextID = maxID + 1
	if watermark > c.nextID {
		c.nextID = watermark
	}
	return nil
}

// Store is a set of named collections. Each collection carries its own
// RW lock, so traffic against different collections never contends; the
// store-level lock only guards the name → collection map.
type Store struct {
	mu          sync.RWMutex
	collections map[string]*Collection
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{collections: make(map[string]*Collection)}
}

// Collection returns (creating if needed) the named collection. The
// common lookup path takes only a read lock.
func (s *Store) Collection(name string) *Collection {
	s.mu.RLock()
	c, ok := s.collections[name]
	s.mu.RUnlock()
	if ok {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.collections[name]; ok {
		return c
	}
	c = NewCollection(name)
	s.collections[name] = c
	return c
}

// Names lists the collection names, sorted.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.collections))
	for n := range s.collections {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// deepCopy clones a document via JSON, which also normalizes numeric
// types to float64 — matching what a wire round trip would produce.
func deepCopy(d Document) (Document, error) {
	b, err := json.Marshal(d)
	if err != nil {
		return nil, err
	}
	var out Document
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, err
	}
	return out, nil
}
