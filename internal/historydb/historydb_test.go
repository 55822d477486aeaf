package historydb

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func sampleDocs(t *testing.T) *Collection {
	t.Helper()
	c := NewCollection("func_eval")
	docs := []Document{
		{"machine": "Cori", "partition": "haswell", "nodes": 8, "runtime": 3.5, "user": "alice"},
		{"machine": "Cori", "partition": "knl", "nodes": 32, "runtime": 9.1, "user": "bob"},
		{"machine": "Summit", "partition": "gpu", "nodes": 4, "runtime": 1.2, "user": "alice"},
		{"machine": "Cori", "partition": "haswell", "nodes": 64, "runtime": 7.7, "user": "carol",
			"software": map[string]interface{}{"name": "scalapack", "version": "2.1.0"}},
	}
	for _, d := range docs {
		if _, err := c.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestInsertAssignsUniqueIDs(t *testing.T) {
	c := NewCollection("x")
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		id, err := c.Insert(Document{"i": i})
		if err != nil {
			t.Fatal(err)
		}
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		seen[id] = true
	}
	if c.Len() != 10 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestInsertIsolatesCaller(t *testing.T) {
	c := NewCollection("x")
	doc := Document{"v": 1}
	c.Insert(doc)
	doc["v"] = 999 // mutate after insert
	got, err := c.FindOne(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got["v"].(float64) != 1 {
		t.Fatal("insert did not deep-copy")
	}
	got["v"] = 888 // mutate result
	again, _ := c.FindOne(nil)
	if again["v"].(float64) != 1 {
		t.Fatal("find did not deep-copy")
	}
}

func TestQueries(t *testing.T) {
	c := sampleDocs(t)
	cases := []struct {
		q    Query
		want int
	}{
		{Eq("machine", "Cori"), 3},
		{Eq("machine", "Nope"), 0},
		{Eq("nodes", 8), 1},
		{Range("runtime", 0, 5), 2},
		{Range("nodes", 30, 70), 2},
		{In("partition", "haswell", "gpu"), 3},
		{Exists("software"), 1},
		{Eq("software.version", "2.1.0"), 1},
		{And(Eq("machine", "Cori"), Eq("partition", "haswell")), 2},
		{Or(Eq("user", "bob"), Eq("user", "carol")), 2},
		{Not(Eq("machine", "Cori")), 1},
		{And(), 4}, // vacuous truth
		{Or(), 0},
		{nil, 4},
	}
	for i, tc := range cases {
		if got := c.Count(tc.q); got != tc.want {
			t.Fatalf("case %d: Count = %d, want %d", i, got, tc.want)
		}
	}
}

func TestFindOrderAndFindOne(t *testing.T) {
	c := sampleDocs(t)
	docs, err := c.Find(Eq("machine", "Cori"))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 3 || docs[0]["user"] != "alice" || docs[2]["user"] != "carol" {
		t.Fatal("insertion order not preserved")
	}
	one, err := c.FindOne(Eq("user", "bob"))
	if err != nil || one["partition"] != "knl" {
		t.Fatalf("FindOne = %v, %v", one, err)
	}
	none, err := c.FindOne(Eq("user", "zoe"))
	if err != nil || none != nil {
		t.Fatal("missing doc should be nil")
	}
}

func TestDeleteAndUpdate(t *testing.T) {
	c := sampleDocs(t)
	if n, err := c.Delete(Eq("user", "alice")); n != 2 || err != nil {
		t.Fatalf("deleted %d (%v)", n, err)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	n, err := c.Update(Eq("machine", "Cori"), func(d Document) { d["checked"] = true })
	if n != 2 || err != nil {
		t.Fatalf("updated %d (%v)", n, err)
	}
	if c.Count(Eq("checked", true)) != 2 {
		t.Fatal("update not visible")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	c := sampleDocs(t)
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	c2 := NewCollection("copy")
	if err := c2.ReadJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if c2.Len() != c.Len() {
		t.Fatalf("round trip lost docs: %d vs %d", c2.Len(), c.Len())
	}
	// IDs must not collide after reload.
	id, _ := c2.Insert(Document{"new": true})
	if c2.Count(Eq("_id", id)) != 1 {
		t.Fatal("new id after reload not unique")
	}
}

func TestQueryWireRoundTrip(t *testing.T) {
	q := And(
		Eq("machine", "Cori"),
		Or(Range("nodes", 1, 16), In("partition", "knl", "gpu")),
		Not(Eq("user", "bob")),
		Exists("runtime"),
	)
	data, err := MarshalQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := UnmarshalQuery(data)
	if err != nil {
		t.Fatal(err)
	}
	c := sampleDocs(t)
	a, _ := c.Find(q)
	b, _ := c.Find(q2)
	if len(a) != len(b) {
		t.Fatalf("wire round trip changed semantics: %d vs %d", len(a), len(b))
	}
	// Null query.
	qn, err := UnmarshalQuery([]byte("null"))
	if err != nil || qn != nil {
		t.Fatal("null query should be nil")
	}
	if _, err := UnmarshalQuery([]byte(`{"op":"zap"}`)); err == nil {
		t.Fatal("expected unknown-op error")
	}
	if _, err := UnmarshalQuery([]byte(`{`)); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestQueryAlgebraProperty(t *testing.T) {
	// Not(Not(q)) ≡ q and De Morgan over random docs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := Document{
			"a": float64(rng.Intn(5)),
			"b": fmt.Sprintf("s%d", rng.Intn(3)),
		}
		q1 := Range("a", 1, 3)
		q2 := Eq("b", "s1")
		lhs := Not(And(q1, q2)).Match(d)
		rhs := Or(Not(q1), Not(q2)).Match(d)
		if lhs != rhs {
			return false
		}
		return Not(Not(q1)).Match(d) == q1.Match(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNumericCrossTypeEquality(t *testing.T) {
	c := NewCollection("x")
	c.Insert(Document{"n": 5}) // becomes float64(5) after deep copy
	if c.Count(Eq("n", 5)) != 1 {
		t.Fatal("int query should match float64 doc")
	}
	if c.Count(Eq("n", 5.0)) != 1 {
		t.Fatal("float query should match")
	}
}

func TestStore(t *testing.T) {
	s := NewStore()
	a := s.Collection("alpha")
	b := s.Collection("beta")
	if s.Collection("alpha") != a {
		t.Fatal("collection identity lost")
	}
	a.Insert(Document{"x": 1})
	if b.Len() != 0 {
		t.Fatal("collections should be independent")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := NewCollection("conc")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c.Insert(Document{"g": g, "i": i})
				c.Count(Eq("g", g))
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 400 {
		t.Fatalf("Len = %d after concurrent inserts", c.Len())
	}
}
