package historydb

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Query is a predicate over documents. Queries form an algebra via And,
// Or and Not, and serialize to/from a compact JSON form so that clients
// can ship them to the crowd server (the paper's "SQL-like query"
// interface).
type Query interface {
	Match(Document) bool
	// json returns the wire form.
	json() map[string]interface{}
}

// Lookup resolves a dotted field path ("machine_configuration.machine_name")
// inside a document. It allocates nothing: every Match of every scanned
// document comes through here.
func Lookup(d Document, path string) (interface{}, bool) {
	cur := interface{}(d)
	for more := true; more; {
		var part string
		part, path, more = strings.Cut(path, ".")
		m, ok := cur.(map[string]interface{})
		if !ok {
			return nil, false
		}
		if cur, ok = m[part]; !ok {
			return nil, false
		}
	}
	return cur, true
}

// numeric converts JSON-ish scalars to float64 for comparison.
func numeric(v interface{}) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case json.Number:
		f, err := x.Float64()
		return f, err == nil
	}
	return 0, false
}

// scalarEqual compares two scalars, treating all numeric types alike.
func scalarEqual(a, b interface{}) bool {
	if af, ok := numeric(a); ok {
		bf, ok2 := numeric(b)
		return ok2 && af == bf
	}
	switch av := a.(type) {
	case string:
		bv, ok := b.(string)
		return ok && av == bv
	case bool:
		bv, ok := b.(bool)
		return ok && av == bv
	case nil:
		return b == nil
	}
	return false
}

type eqQuery struct {
	field string
	value interface{}
}

// Eq matches documents whose field equals value.
func Eq(field string, value interface{}) Query { return eqQuery{field, value} }

func (q eqQuery) Match(d Document) bool {
	v, ok := Lookup(d, q.field)
	return ok && scalarEqual(v, q.value)
}

func (q eqQuery) json() map[string]interface{} {
	return map[string]interface{}{"op": "eq", "field": q.field, "value": q.value}
}

type rangeQuery struct {
	field  string
	lo, hi float64
}

// Range matches documents whose numeric field lies in [lo, hi].
func Range(field string, lo, hi float64) Query { return rangeQuery{field, lo, hi} }

func (q rangeQuery) Match(d Document) bool {
	v, ok := Lookup(d, q.field)
	if !ok {
		return false
	}
	f, ok := numeric(v)
	return ok && f >= q.lo && f <= q.hi
}

func (q rangeQuery) json() map[string]interface{} {
	return map[string]interface{}{"op": "range", "field": q.field, "lo": q.lo, "hi": q.hi}
}

type inQuery struct {
	field  string
	values []interface{}
}

// In matches documents whose field equals any of the values.
func In(field string, values ...interface{}) Query { return inQuery{field, values} }

func (q inQuery) Match(d Document) bool {
	v, ok := Lookup(d, q.field)
	if !ok {
		return false
	}
	for _, want := range q.values {
		if scalarEqual(v, want) {
			return true
		}
	}
	return false
}

func (q inQuery) json() map[string]interface{} {
	return map[string]interface{}{"op": "in", "field": q.field, "values": q.values}
}

type existsQuery struct{ field string }

// Exists matches documents that have the field at all.
func Exists(field string) Query { return existsQuery{field} }

func (q existsQuery) Match(d Document) bool {
	_, ok := Lookup(d, q.field)
	return ok
}

func (q existsQuery) json() map[string]interface{} {
	return map[string]interface{}{"op": "exists", "field": q.field}
}

type andQuery struct{ subs []Query }

// And matches documents matching every sub-query (vacuously true for
// zero sub-queries).
func And(subs ...Query) Query { return andQuery{subs} }

func (q andQuery) Match(d Document) bool {
	for _, s := range q.subs {
		if !s.Match(d) {
			return false
		}
	}
	return true
}

func (q andQuery) json() map[string]interface{} {
	subs := make([]interface{}, len(q.subs))
	for i, s := range q.subs {
		subs[i] = s.json()
	}
	return map[string]interface{}{"op": "and", "subs": subs}
}

type orQuery struct{ subs []Query }

// Or matches documents matching at least one sub-query (false for zero
// sub-queries).
func Or(subs ...Query) Query { return orQuery{subs} }

func (q orQuery) Match(d Document) bool {
	for _, s := range q.subs {
		if s.Match(d) {
			return true
		}
	}
	return false
}

func (q orQuery) json() map[string]interface{} {
	subs := make([]interface{}, len(q.subs))
	for i, s := range q.subs {
		subs[i] = s.json()
	}
	return map[string]interface{}{"op": "or", "subs": subs}
}

type notQuery struct{ sub Query }

// Not inverts a query.
func Not(sub Query) Query { return notQuery{sub} }

func (q notQuery) Match(d Document) bool { return !q.sub.Match(d) }

func (q notQuery) json() map[string]interface{} {
	return map[string]interface{}{"op": "not", "sub": q.sub.json()}
}

// MarshalQuery renders a query as JSON for the wire.
func MarshalQuery(q Query) ([]byte, error) {
	if q == nil {
		return []byte("null"), nil
	}
	return json.Marshal(q.json())
}

// UnmarshalQuery parses the wire form back into a Query. It returns
// (nil, nil) for JSON null (match-all).
func UnmarshalQuery(data []byte) (Query, error) {
	var raw interface{}
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("historydb: bad query JSON: %w", err)
	}
	if raw == nil {
		return nil, nil
	}
	return queryFromRaw(raw)
}

func queryFromRaw(raw interface{}) (Query, error) {
	m, ok := raw.(map[string]interface{})
	if !ok {
		return nil, fmt.Errorf("historydb: query node must be an object, got %T", raw)
	}
	op, _ := m["op"].(string)
	field, _ := m["field"].(string)
	switch op {
	case "eq":
		return Eq(field, m["value"]), nil
	case "range":
		lo, ok1 := numeric(m["lo"])
		hi, ok2 := numeric(m["hi"])
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("historydb: range query needs numeric lo/hi")
		}
		return Range(field, lo, hi), nil
	case "in":
		vals, ok := m["values"].([]interface{})
		if !ok {
			return nil, fmt.Errorf("historydb: in query needs values array")
		}
		return In(field, vals...), nil
	case "exists":
		return Exists(field), nil
	case "and", "or":
		rawSubs, ok := m["subs"].([]interface{})
		if !ok {
			return nil, fmt.Errorf("historydb: %s query needs subs array", op)
		}
		subs := make([]Query, len(rawSubs))
		for i, rs := range rawSubs {
			q, err := queryFromRaw(rs)
			if err != nil {
				return nil, err
			}
			subs[i] = q
		}
		if op == "and" {
			return And(subs...), nil
		}
		return Or(subs...), nil
	case "not":
		sub, err := queryFromRaw(m["sub"])
		if err != nil {
			return nil, err
		}
		return Not(sub), nil
	}
	return nil, fmt.Errorf("historydb: unknown query op %q", op)
}
