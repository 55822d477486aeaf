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
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

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
// to pick the slice to walk (the whole collection, one index bucket or
// one document by id); matching runs outside the lock, so large scans
// never starve writers.
//
// Every slice a reader can hold — docs and each index bucket — is
// append-only between rebuilds: an append past a reader's length is
// invisible to it, and anything that would move or replace an element
// (Delete, Update, ReadJSONL, a replayed upsert) builds fresh slices
// and a fresh index instead of touching the ones readers may still be
// walking.
type Collection struct {
	mu      sync.RWMutex
	name    string
	docs    []Document
	byID    map[string]int // _id → position in docs (first one, should ids repeat)
	dupIDs  bool           // a loaded file repeated an _id: byID cannot answer Eq("_id")
	index   *partition     // nil until IndexBy
	nextID  int64
	journal *replog.Journal
}

// partition is the collection's one secondary index: the stored
// documents grouped by the scalar value of one field, each bucket in
// insertion order. Documents without the field, or holding a
// non-scalar there, are in no bucket — Eq never matches them.
type partition struct {
	field   string
	buckets map[interface{}][]Document
	values  []interface{} // bucket keys in order of first appearance
}

func (p *partition) add(d Document) {
	v, ok := Lookup(d, p.field)
	if !ok {
		return
	}
	k, ok := indexKey(v)
	if !ok {
		return
	}
	b, seen := p.buckets[k]
	if !seen {
		p.values = append(p.values, k)
	}
	p.buckets[k] = append(b, d)
}

// indexKey folds a scalar to the form buckets are keyed by, so that a
// map lookup agrees with scalarEqual: every numeric type is a float64.
// Non-scalars have no key (and equal nothing).
func indexKey(v interface{}) (interface{}, bool) {
	if f, ok := numeric(v); ok {
		return f, true
	}
	switch v.(type) {
	case string, bool, nil:
		return v, true
	}
	return nil, false
}

// NewCollection returns an empty collection.
func NewCollection(name string) *Collection {
	c := &Collection{name: name, nextID: 1, byID: make(map[string]int)}
	c.journal = replog.NewJournal(c, &c.mu, func(w io.Writer) error {
		return writeJSONL(w, c.docs, c.nextID)
	})
	return c
}

// Len returns the number of stored documents.
func (c *Collection) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.docs)
}

// IndexBy partitions the collection by the scalar value of field (a
// dotted path), now and through every later mutation. A query that pins
// the field with Eq — alone or inside And — then walks one bucket
// instead of the collection. A collection has one partition index; a
// second call replaces it.
func (c *Collection) IndexBy(field string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.index = &partition{field: field}
	c.setDocsLocked(c.docs)
}

// IndexValues returns the distinct values the indexed field takes
// across the collection, in order of first appearance (nil without an
// index). It reads the bucket keys and visits no document.
func (c *Collection) IndexValues() []interface{} {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.index == nil {
		return nil
	}
	return append([]interface{}(nil), c.index.values...)
}

// appendLocked stores one more (already copied, id-carrying) document.
func (c *Collection) appendLocked(d Document) {
	c.docs = append(c.docs, d)
	c.noteLocked(len(c.docs)-1, d)
}

// noteLocked enters the document at position i into the id map and the
// partition index.
func (c *Collection) noteLocked(i int, d Document) {
	if id := docID(d); id != "" {
		if _, dup := c.byID[id]; dup {
			c.dupIDs = true
		} else {
			c.byID[id] = i
		}
	}
	if c.index != nil {
		c.index.add(d)
	}
}

// setDocsLocked swaps in a new document slice and rebuilds the id map
// and the partition index from it. Both are built fresh — readers that
// picked up the old slice or an old bucket keep walking it untouched.
func (c *Collection) setDocsLocked(docs []Document) {
	c.docs = docs
	c.byID = make(map[string]int, len(docs))
	c.dupIDs = false
	if c.index != nil {
		c.index = &partition{field: c.index.field, buckets: make(map[interface{}][]Document)}
	}
	for i, d := range docs {
		c.noteLocked(i, d)
	}
}

// Insert stores a deep copy of doc and returns its assigned id.
func (c *Collection) Insert(doc Document) (string, error) {
	ids, err := c.InsertMany([]Document{doc})
	if err != nil {
		return "", err
	}
	return ids[0], nil
}

// InsertMany stores deep copies of docs atomically: either every
// document is inserted (with consecutive ids, in order) or none is, and
// no concurrent reader ever observes a partially applied batch. The
// deep copies are taken before the write lock so their cost is not paid
// under contention.
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
		ids[i] = strconv.FormatInt(c.nextID+int64(i), 10)
		cp["_id"] = ids[i]
	}
	next := c.nextID + int64(len(cps))
	if len(cps) > 0 {
		if err := c.journal.Append(logRecord{Op: "insert", Docs: cps, NextID: next}); err != nil {
			return nil, err
		}
	}
	c.nextID = next
	for _, cp := range cps {
		c.appendLocked(cp)
	}
	return ids, nil
}

// planLocked is the query planner: the smallest stored slice guaranteed
// to hold every match of q — one document for Eq("_id"), one bucket for
// Eq on the indexed field, either of those found inside an And — or
// false for "walk the collection". The caller still runs q.Match on
// each candidate.
func (c *Collection) planLocked(q Query) ([]Document, bool) {
	switch q := q.(type) {
	case eqQuery:
		if id, isStr := q.value.(string); isStr && q.field == "_id" && !c.dupIDs {
			if i, ok := c.byID[id]; ok {
				return c.docs[i : i+1 : i+1], true
			}
			return nil, true
		}
		if c.index != nil && q.field == c.index.field {
			if k, ok := indexKey(q.value); ok {
				return c.index.buckets[k], true
			}
			return nil, true // Eq on a non-scalar matches nothing
		}
	case andQuery:
		for _, sub := range q.subs {
			if docs, ok := c.planLocked(sub); ok {
				return docs, true
			}
		}
	}
	return nil, false
}

// Scan calls fn with every stored document matching q, in insertion
// order, until fn returns false. A nil query matches everything. It
// returns how many stored documents it examined (matching or not) —
// what the query cost, as opposed to what it returned.
//
// fn receives the stored document itself, not a copy: it must not
// modify it, nor anything reachable from it, and may keep references
// only as long as it keeps that promise. The scan runs outside the
// collection lock on slices no writer touches, checks ctx every 256
// documents, and sees each InsertMany batch entirely or not at all.
func (c *Collection) Scan(ctx context.Context, q Query, fn func(Document) bool) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	c.mu.RLock()
	docs, planned := c.planLocked(q)
	if !planned {
		docs = c.docs
	}
	c.mu.RUnlock()
	for i, d := range docs {
		if i&255 == 255 {
			if err := ctx.Err(); err != nil {
				return i, err
			}
		}
		if (q == nil || q.Match(d)) && !fn(d) {
			return i + 1, nil
		}
	}
	return len(docs), nil
}

// Find returns deep copies of all documents matching q, in insertion
// order. A nil query matches everything.
func (c *Collection) Find(q Query) ([]Document, error) {
	return c.FindContext(context.Background(), q)
}

// FindContext is Find with cancellation: an expired request deadline
// aborts the scan instead of copying the rest of a large collection.
func (c *Collection) FindContext(ctx context.Context, q Query) ([]Document, error) {
	var out []Document
	var copyErr error
	_, err := c.Scan(ctx, q, func(d Document) bool {
		var cp Document
		cp, copyErr = deepCopy(d)
		out = append(out, cp)
		return copyErr == nil
	})
	if err == nil {
		err = copyErr
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FindOne returns a deep copy of the first match, or nil.
func (c *Collection) FindOne(q Query) (Document, error) {
	var first Document
	// A background context cannot expire, so these scans cannot fail.
	c.Scan(context.Background(), q, func(d Document) bool { first = d; return false })
	if first == nil {
		return nil, nil
	}
	return deepCopy(first)
}

// Count returns the number of matching documents.
func (c *Collection) Count(q Query) int {
	n := 0
	c.Scan(context.Background(), q, func(Document) bool { n++; return true })
	return n
}

// Delete removes matching documents and returns how many were removed,
// or the journal error that kept it from removing any. The kept
// documents move to a fresh slice so concurrent readers keep seeing the
// pre-delete state.
func (c *Collection) Delete(q Query) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := make([]Document, 0, len(c.docs))
	var removedIDs []string
	for _, d := range c.docs {
		if q != nil && q.Match(d) {
			if id := docID(d); id != "" {
				removedIDs = append(removedIDs, id)
			}
			continue
		}
		kept = append(kept, d)
	}
	removed := len(c.docs) - len(kept)
	if removed == 0 {
		return 0, nil
	}
	if err := c.journal.Append(logRecord{Op: "delete", IDs: removedIDs}); err != nil {
		return 0, err
	}
	c.setDocsLocked(kept)
	return removed, nil
}

// Update applies fn to a copy of every matching document and swaps the
// copy in (copy-on-write), returning the number updated, or the journal
// error that kept it from updating any. Stored documents stay
// immutable, so concurrent readers see either the old or the new
// version, never a half-applied mutation.
func (c *Collection) Update(q Query, fn func(Document)) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// A fresh slice, not in-place writes: outstanding readers share the
	// old backing array and must not observe element swaps.
	next := make([]Document, len(c.docs))
	copy(next, c.docs)
	var updated []Document
	for i, d := range next {
		if q == nil || q.Match(d) {
			cp, err := deepCopy(d)
			if err != nil {
				continue
			}
			fn(cp)
			next[i] = cp
			updated = append(updated, cp)
		}
	}
	if len(updated) == 0 {
		return 0, nil
	}
	if err := c.journal.Append(logRecord{Op: "update", Docs: updated}); err != nil {
		return 0, err
	}
	c.setDocsLocked(next)
	return len(updated), nil
}

// WriteJSONL serializes the collection, one document per line and the
// id watermark last (see watermarkKey). It serializes a snapshot taken
// under the lock and written outside it, so it never blocks traffic.
func (c *Collection) WriteJSONL(w io.Writer) error {
	c.mu.RLock()
	docs, nextID := c.docs, c.nextID
	c.mu.RUnlock()
	return writeJSONL(w, docs, nextID)
}

func writeJSONL(w io.Writer, docs []Document, nextID int64) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, d := range docs {
		if err := enc.Encode(d); err != nil {
			return err
		}
	}
	if err := enc.Encode(map[string]int64{watermarkKey: nextID}); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadJSONL replaces the collection contents from a JSONL stream,
// preserving existing _id fields and advancing the id counter past
// them. A snapshot's trailing watermark record (see watermarkKey)
// restores the exact counter; streams without one fall back to maxID+1.
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
	c.setDocsLocked(docs)
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

// deepCopy clones a document into the normal form a JSON round trip
// gives it — what a wire round trip would produce: numbers are float64,
// nil maps and slices are null, NaN and ±Inf are json.Marshal's error.
// Values already in the JSON family (what json.Unmarshal produces, plus
// int and int64) are copied structurally; anything else — structs,
// typed slices, json.Number, float32, strings that are not valid UTF-8
// — takes the real round trip.
func deepCopy(d Document) (Document, error) {
	v, err := copyValue(d)
	if err != nil {
		return nil, err
	}
	out, _ := v.(Document)
	return out, nil
}

func copyValue(v interface{}) (interface{}, error) {
	switch x := v.(type) {
	case nil, bool:
		return x, nil
	case string:
		if utf8.ValidString(x) {
			return x, nil
		}
	case float64:
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			return x, nil
		}
	case int:
		return float64(x), nil
	case int64:
		return float64(x), nil
	case map[string]interface{}:
		if x == nil {
			return nil, nil
		}
		out := make(map[string]interface{}, len(x))
		for k, e := range x {
			if !utf8.ValidString(k) {
				return jsonRoundTrip(v)
			}
			ce, err := copyValue(e)
			if err != nil {
				return nil, err
			}
			out[k] = ce
		}
		return out, nil
	case []interface{}:
		if x == nil {
			return nil, nil
		}
		out := make([]interface{}, len(x))
		for i, e := range x {
			ce, err := copyValue(e)
			if err != nil {
				return nil, err
			}
			out[i] = ce
		}
		return out, nil
	}
	return jsonRoundTrip(v)
}

func jsonRoundTrip(v interface{}) (interface{}, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var out interface{}
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, err
	}
	return out, nil
}
