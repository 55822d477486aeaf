package historydb

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"gptunecrowd/internal/replog"
)

// bruteFind is the reference the planner is held to: every stored
// document, in order, through q.Match — no index, no id map.
func bruteFind(c *Collection, q Query) []Document {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []Document
	for _, d := range c.docs {
		if q == nil || q.Match(d) {
			out = append(out, d)
		}
	}
	return out
}

// randomQuery draws a query tree over the fields randomDoc writes,
// weighted towards the shapes the planner special-cases (Eq on the
// indexed field or on _id, alone and inside And).
func randomQuery(rng *rand.Rand, depth int) Query {
	leaf := func() Query {
		switch rng.Intn(7) {
		case 0:
			return Eq("p", fmt.Sprintf("p%d", rng.Intn(5)))
		case 1:
			return Eq("_id", fmt.Sprint(1+rng.Intn(60)))
		case 2:
			return Eq("k", float64(rng.Intn(4)))
		case 3:
			return In("p", "p0", float64(rng.Intn(3)), nil)
		case 4:
			return Eq("p", []interface{}{"p1"}) // non-scalar: matches nothing
		case 5:
			return Eq("p", nil)
		default:
			return Range("k", 0, float64(rng.Intn(4)))
		}
	}
	if depth == 0 {
		return leaf()
	}
	subs := make([]Query, rng.Intn(3))
	for i := range subs {
		subs[i] = randomQuery(rng, depth-1)
	}
	switch rng.Intn(5) {
	case 0:
		return And(append(subs, leaf())...)
	case 1:
		return And(subs...)
	case 2:
		return Or(subs...)
	case 3:
		return Not(randomQuery(rng, depth-1))
	default:
		return leaf()
	}
}

// randomDoc draws a document whose indexed field "p" is usually a
// string, sometimes a number, null, a non-scalar or absent.
func randomDoc(rng *rand.Rand) Document {
	d := Document{"k": rng.Intn(4)}
	switch rng.Intn(10) {
	case 0:
		d["p"] = rng.Intn(3)
	case 1:
		d["p"] = nil
	case 2:
		d["p"] = []interface{}{"p1"}
	case 3:
	default:
		d["p"] = fmt.Sprintf("p%d", rng.Intn(5))
	}
	return d
}

// TestPlannerMatchesBruteForce drives random mutation sequences —
// including log replay into a second collection, compaction and JSONL
// reloads with repeated ids — and after every step holds Find, Count,
// FindOne and IndexValues, through the planner, to the brute-force scan.
func TestPlannerMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		leader := NewCollection("leader")
		leader.IndexBy("p")
		if err := leader.Journal().Open(t.TempDir(), replog.Options{Name: "prop"}); err != nil {
			t.Fatal(err)
		}
		lg := leader.Journal().Log()
		follower := NewCollection("follower")
		follower.IndexBy("p")
		applied := uint64(0)
		// restart loads a fresh follower from the log, as a process
		// restart or a snapshot resync does.
		restart := func() {
			follower = NewCollection("follower")
			follower.IndexBy("p")
			var snap strings.Builder
			idx, ok, err := lg.Snapshot(&snap)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				if err := follower.ReadJSONL(strings.NewReader(snap.String())); err != nil {
					t.Fatal(err)
				}
			}
			applied = idx // the loop below ships the entries after the snapshot
		}

		check := func(c *Collection, step int, op string) {
			t.Helper()
			for i := 0; i < 12; i++ {
				q := randomQuery(rng, 2)
				if i == 0 {
					q = nil
				}
				want := bruteFind(c, q)
				got, err := c.Find(q)
				if err != nil {
					t.Fatal(err)
				}
				wire, _ := MarshalQuery(q)
				if len(got) != len(want) {
					t.Fatalf("seed %d step %d (%s) %s on %s: Find returned %d documents, brute force %d", seed, step, op, wire, c.name, len(got), len(want))
				}
				for j := range want {
					if !reflect.DeepEqual(got[j], want[j]) {
						t.Fatalf("seed %d step %d (%s) %s on %s: position %d is %v, brute force %v", seed, step, op, wire, c.name, j, got[j], want[j])
					}
				}
				if n := c.Count(q); n != len(want) {
					t.Fatalf("seed %d step %d (%s) %s: Count %d, brute force %d", seed, step, op, wire, n, len(want))
				}
				one, _ := c.FindOne(q)
				if (one == nil) != (len(want) == 0) || (one != nil && !reflect.DeepEqual(one, want[0])) {
					t.Fatalf("seed %d step %d (%s) %s: FindOne %v, brute force %v", seed, step, op, wire, one, want)
				}
			}
			var distinct []interface{}
			seen := map[interface{}]bool{}
			for _, d := range bruteFind(c, nil) {
				if k, ok := indexKey(d["p"]); ok && !seen[k] {
					if _, present := d["p"]; present {
						seen[k] = true
						distinct = append(distinct, k)
					}
				}
			}
			if got := c.IndexValues(); !reflect.DeepEqual(got, distinct) {
				t.Fatalf("seed %d step %d (%s): IndexValues %v, brute force %v", seed, step, op, got, distinct)
			}
		}

		for step := 0; step < 60; step++ {
			var op string
			switch rng.Intn(9) {
			case 0, 1:
				op = "Insert"
				if _, err := leader.Insert(randomDoc(rng)); err != nil {
					t.Fatal(err)
				}
			case 2, 3:
				op = "InsertMany"
				batch := make([]Document, rng.Intn(6))
				for i := range batch {
					batch[i] = randomDoc(rng)
				}
				if _, err := leader.InsertMany(batch); err != nil {
					t.Fatal(err)
				}
			case 4:
				op = "Delete"
				leader.Delete(randomQuery(rng, 1))
			case 5:
				op = "Update"
				p := fmt.Sprintf("p%d", rng.Intn(5))
				leader.Update(randomQuery(rng, 1), func(d Document) { d["p"] = p }) // moves documents between buckets
			case 6:
				op = "CompactLog+replay"
				if err := leader.Journal().Compact(); err != nil {
					t.Fatal(err)
				}
				restart() // a compacted prefix no longer ships as records
			case 7:
				op = "ReadJSONL"
				// A foreign file: repeated and missing ids, no watermark.
				var buf strings.Builder
				for i, n := 0, rng.Intn(8); i < n; i++ {
					d := randomDoc(rng)
					if rng.Intn(4) > 0 {
						d["_id"] = fmt.Sprint(1 + rng.Intn(5))
					}
					b, _ := json.Marshal(d)
					buf.Write(b)
					buf.WriteByte('\n')
				}
				scratch := NewCollection("loaded")
				scratch.IndexBy("p")
				if err := scratch.ReadJSONL(strings.NewReader(buf.String())); err != nil {
					t.Fatal(err)
				}
				if _, err := scratch.Insert(randomDoc(rng)); err != nil {
					t.Fatal(err)
				}
				check(scratch, step, op)
				continue
			default:
				op = "ApplyLogRecord(duplicate)"
				// Redeliver an old record: upsert must leave one copy.
				if recs, err := lg.Entries(lg.Stats().SnapIndex, 1); err == nil && len(recs) == 1 {
					if err := follower.ApplyLogRecord(recs[0]); err != nil {
						t.Fatal(err)
					}
					check(follower, step, op)
					restart() // ...and back to the leader's state
				}
			}
			recs, err := lg.Entries(applied, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				if err := follower.ApplyLogRecord(r); err != nil {
					t.Fatal(err)
				}
				applied = r.Index
			}
			check(leader, step, op)
			check(follower, step, op)
			if want, got := bruteFind(leader, nil), bruteFind(follower, nil); !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d step %d (%s): follower diverged from leader", seed, step, op)
			}
		}
		lg.Close()
	}
}

// TestScanExaminesOnlyItsPartition counts, not times: Eq on the indexed
// field walks one bucket, Eq("_id") one document, an unindexed query
// the collection.
func TestScanExaminesOnlyItsPartition(t *testing.T) {
	c := NewCollection("x")
	var batch []Document
	for i := 0; i < 1000; i++ {
		batch = append(batch, Document{"p": fmt.Sprintf("p%d", i%4), "k": i})
	}
	if _, err := c.InsertMany(batch); err != nil {
		t.Fatal(err)
	}
	scanned := func(q Query) int {
		n, err := c.Scan(context.Background(), q, func(Document) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := scanned(Eq("p", "p1")); n != 1000 {
		t.Fatalf("without an index Eq examined %d documents, want 1000", n)
	}
	c.IndexBy("p") // builds from the stored documents
	for _, tc := range []struct {
		q    Query
		want int
	}{
		{Eq("p", "p1"), 250},
		{And(Range("k", 0, 10), Eq("p", "p1")), 250},
		{And(Not(Eq("k", 1)), And(Eq("p", "p1"))), 250},
		{Eq("p", "absent"), 0},
		{Eq("_id", "17"), 1},
		{And(Eq("p", "p0"), Eq("_id", "17")), 250}, // the first pinned sub-query decides
		{Eq("_id", "100000"), 0},
		{Or(Eq("p", "p1"), Eq("p", "p2")), 1000},
		{Not(Eq("p", "p1")), 1000},
		{Range("k", 0, 10), 1000},
		{nil, 1000},
		{Eq("k", 5), 1000},
		{Eq("_id", 17), 1000}, // ids are strings; a number cannot use the map
		{And(Eq("p", []interface{}{"p1"}), Eq("k", 1)), 0},
	} {
		if n := scanned(tc.q); n != tc.want {
			wire, _ := MarshalQuery(tc.q)
			t.Errorf("%s examined %d documents, want %d", wire, n, tc.want)
		}
	}
	// Stopping early is counted as far as it went.
	n, _ := c.Scan(context.Background(), Eq("p", "p1"), func(Document) bool { return false })
	if n != 1 {
		t.Fatalf("a scan stopped at its first match examined %d documents", n)
	}
	// Cancellation is polled every 256 documents.
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	n, err := c.Scan(ctx, nil, func(Document) bool {
		if seen++; seen == 300 {
			cancel()
		}
		return true
	})
	if err != context.Canceled || n != 511 {
		t.Fatalf("cancelled scan: examined %d, err %v; want 511, context.Canceled", n, err)
	}
	if _, err := c.FindContext(ctx, nil); err != context.Canceled {
		t.Fatalf("FindContext on a cancelled context: %v", err)
	}
}

// TestScanIsolationUnderWriters (run with -race): readers walking
// buckets and the whole collection while writers insert batches, delete
// and update never see part of a batch, a document change under them,
// or a bucket out of insertion order.
func TestScanIsolationUnderWriters(t *testing.T) {
	c := NewCollection("x")
	c.IndexBy("p")
	const batch = 7
	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for round := 0; round < 120; round++ {
				docs := make([]Document, batch)
				for i := range docs {
					docs[i] = Document{"p": fmt.Sprintf("p%d", w), "round": round, "v": 0, "nested": map[string]interface{}{"v": 0}}
				}
				if _, err := c.InsertMany(docs); err != nil {
					t.Error(err)
					return
				}
				switch round % 3 {
				case 1:
					// Whole batches only, so the multiple-of-7 invariant holds.
					c.Delete(And(Eq("p", fmt.Sprintf("p%d", w)), Eq("round", round-1)))
				case 2:
					c.Update(And(Eq("p", fmt.Sprintf("p%d", w)), Eq("round", round)), func(d Document) {
						d["v"] = 1
						d["nested"].(map[string]interface{})["v"] = 1
					})
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			q := Query(nil)
			if r%2 == 0 {
				q = Eq("p", fmt.Sprintf("p%d", r/2))
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				perRound := map[[2]interface{}]int{}
				lastID := int64(0)
				_, err := c.Scan(context.Background(), q, func(d Document) bool {
					perRound[[2]interface{}{d["p"], d["round"]}]++
					// A stored document is one version or the other.
					if d["v"] != d["nested"].(map[string]interface{})["v"] {
						t.Errorf("document %v seen half-updated", d["_id"])
					}
					var id int64
					fmt.Sscan(d["_id"].(string), &id)
					if id <= lastID {
						t.Errorf("scan out of insertion order: id %d after %d", id, lastID)
					}
					lastID = id
					return true
				})
				if err != nil {
					t.Error(err)
				}
				for key, n := range perRound {
					if n != batch {
						t.Errorf("reader saw %d of the %d documents of batch %v", n, batch, key)
					}
				}
			}
		}(r)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}

// TestFindStillCopies: Scan hands out the stored document, Find and
// FindOne a copy the caller owns.
func TestFindStillCopies(t *testing.T) {
	c := NewCollection("x")
	c.IndexBy("p")
	c.Insert(Document{"p": "a", "nested": map[string]interface{}{"v": 1}})
	for name, find := range map[string]func() Document{
		"Find":    func() Document { docs, _ := c.Find(Eq("p", "a")); return docs[0] },
		"FindOne": func() Document { d, _ := c.FindOne(Eq("_id", "1")); return d },
	} {
		got := find()
		got["nested"].(map[string]interface{})["v"] = 99
		got["p"] = "b"
		c.Scan(context.Background(), nil, func(d Document) bool {
			if d["p"] != "a" || d["nested"].(map[string]interface{})["v"] != 1.0 {
				t.Errorf("%s returned the stored document, not a copy: %v", name, d)
			}
			return true
		})
	}
}

func TestLookupPathsAndAllocations(t *testing.T) {
	d := Document{"a": map[string]interface{}{"b": map[string]interface{}{"": 3.0}, "": 2.0}, "": 1.0, "s": "x"}
	for path, want := range map[string]interface{}{"": 1.0, "a.": 2.0, "a.b.": 3.0, "s": "x"} {
		if got, ok := Lookup(d, path); !ok || got != want {
			t.Errorf("Lookup(%q) = %v, %v; want %v", path, got, ok, want)
		}
	}
	for _, path := range []string{"missing", "s.x", "a.b.c", ".", "a..b"} {
		if _, ok := Lookup(d, path); ok {
			t.Errorf("Lookup(%q) found something", path)
		}
	}
	q := And(Eq("a.b.", 3), Not(Eq("s", "y")))
	if n := testing.AllocsPerRun(100, func() {
		if !q.Match(d) {
			t.Fatal("no match")
		}
	}); n != 0 {
		t.Errorf("Match allocates %v times per document", n)
	}
}

// jsonCopy is the deepCopy the structural one replaced, kept as its
// reference.
func jsonCopy(d Document) (Document, error) {
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

// TestDeepCopyNormalForm covers what decoded JSON cannot reach: the
// values outside the JSON family, and the errors.
func TestDeepCopyNormalForm(t *testing.T) {
	type point struct {
		X int `json:"x"`
	}
	for name, d := range map[string]Document{
		"ints":        {"i": 7, "i64": int64(1<<62 + 1), "neg": -3, "u": uint(9), "i32": int32(-2)},
		"float32":     {"f": float32(0.1)},
		"nil family":  {"m": map[string]interface{}(nil), "s": []interface{}(nil), "n": nil},
		"empty":       {"m": map[string]interface{}{}, "s": []interface{}{}},
		"typed":       {"ss": []string{"a"}, "st": point{3}, "ptr": &point{4}, "docs": []Document{{"a": 1}}, "num": json.Number("12.5")},
		"bad utf8":    {"s": "a\xffb", "k\xff": 1, "in": map[string]interface{}{"\xfe": "x"}},
		"html":        {"s": "<a href='x'>& </a>"},
		"negative 0":  {"z": math.Copysign(0, -1)},
		"large":       {"big": 1e300, "small": 5e-324, "exp": 1e21},
		"nil doc":     nil,
		"nested deep": {"a": []interface{}{map[string]interface{}{"b": []interface{}{1, "x", nil, true}}}},
	} {
		want, wantErr := jsonCopy(d)
		got, err := deepCopy(d)
		if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: structural copy %#v (%v), JSON round trip %#v (%v)", name, got, err, want, wantErr)
		}
	}
	for name, d := range map[string]Document{
		"NaN":        {"y": math.NaN()},
		"+Inf":       {"a": []interface{}{math.Inf(1)}},
		"-Inf":       {"m": map[string]interface{}{"y": math.Inf(-1)}},
		"chan":       {"c": make(chan int)},
		"nested NaN": {"st": struct{ Y float64 }{math.NaN()}},
	} {
		_, wantErr := jsonCopy(d)
		got, err := deepCopy(d)
		if got != nil || err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Errorf("%s: structural copy %v, error %v; json.Marshal says %v", name, got, err, wantErr)
		}
	}
	// The copy shares nothing with its source.
	src := Document{"m": map[string]interface{}{"v": 1.0}, "s": []interface{}{1.0}}
	cp, _ := deepCopy(src)
	cp["m"].(map[string]interface{})["v"] = 2.0
	cp["s"].([]interface{})[0] = 2.0
	if src["m"].(map[string]interface{})["v"] != 1.0 || src["s"].([]interface{})[0] != 1.0 {
		t.Fatal("copy aliases its source")
	}
}

// FuzzDeepCopy: on anything json.Unmarshal can produce, the structural
// copy is the JSON round trip.
func FuzzDeepCopy(f *testing.F) {
	f.Add([]byte(`{"tuning_problem_name":"p","task_parameters":{"m":1000},"evaluation_result":1.5,"failed":true,"shared_with":["bob"],"x":null}`))
	f.Add([]byte(`{"a":[1,2.5,-0,1e400,"s",[],{}],"b":{"c":{"d":[null]}}}`))
	f.Add([]byte(`{"s":"\ud800","t":" <>&","":""}`))
	f.Add([]byte(`{"n":12345678901234567890,"e":1e-320,"z":-0.0}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Document
		if json.Unmarshal(data, &d) != nil {
			return
		}
		want, wantErr := jsonCopy(d)
		got, err := deepCopy(d)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("structural copy error %v, JSON round trip error %v", err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("structural copy %#v, JSON round trip %#v", got, want)
		}
		// Same bytes on the way out as well (DeepEqual cannot tell -0 from 0).
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(want)
		if !bytes.Equal(a, b) {
			t.Fatalf("structural copy serializes as %s, JSON round trip as %s", a, b)
		}
	})
}
