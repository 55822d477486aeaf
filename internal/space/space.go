// Package space models the three GPTuneCrowd parameter spaces — the
// input (task) space, the tuning-parameter space and the output space —
// with integer, real and categorical parameters, normalization to the
// unit hypercube used by the surrogate models, and the JSON form used by
// meta descriptions (Section IV-A of the paper).
package space

import (
	"encoding/json"
	"fmt"
	"math"
)

// Kind enumerates the supported parameter types.
type Kind int

const (
	// Real is a continuous parameter over [Lo, Hi).
	Real Kind = iota
	// Integer is a discrete parameter over the half-open range [Lo, Hi),
	// matching the paper's convention (e.g. mb ∈ [1, 16)).
	Integer
	// Categorical is an unordered finite choice.
	Categorical
)

// String returns the meta-description type name.
func (k Kind) String() string {
	switch k {
	case Real:
		return "real"
	case Integer:
		return "integer"
	case Categorical:
		return "categorical"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind converts a meta-description type name to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "real":
		return Real, nil
	case "integer", "int":
		return Integer, nil
	case "categorical":
		return Categorical, nil
	}
	return 0, fmt.Errorf("space: unknown parameter type %q", s)
}

// Param describes one parameter of a space.
type Param struct {
	Name       string
	Kind       Kind
	Lo, Hi     float64  // bounds for Real ([Lo,Hi]) and Integer ([Lo,Hi))
	Categories []string // for Categorical
	// LogScale, when set on a Real or Integer parameter, makes the
	// normalized coordinate vary the parameter geometrically — useful
	// for parameters spanning orders of magnitude.
	LogScale bool
}

// Validate checks internal consistency.
func (p Param) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("space: parameter with empty name")
	}
	switch p.Kind {
	case Real:
		if !(p.Lo < p.Hi) {
			return fmt.Errorf("space: parameter %q: bad real range [%v,%v)", p.Name, p.Lo, p.Hi)
		}
		if p.LogScale && p.Lo <= 0 {
			return fmt.Errorf("space: parameter %q: log scale requires positive lower bound", p.Name)
		}
	case Integer:
		lo, hi := math.Ceil(p.Lo), math.Floor(p.Hi)
		if !(lo < hi) {
			return fmt.Errorf("space: parameter %q: bad integer range [%v,%v)", p.Name, p.Lo, p.Hi)
		}
		if p.LogScale && lo <= 0 {
			return fmt.Errorf("space: parameter %q: log scale requires positive lower bound", p.Name)
		}
	case Categorical:
		if len(p.Categories) == 0 {
			return fmt.Errorf("space: parameter %q: categorical with no categories", p.Name)
		}
		seen := make(map[string]bool, len(p.Categories))
		for _, c := range p.Categories {
			if seen[c] {
				return fmt.Errorf("space: parameter %q: duplicate category %q", p.Name, c)
			}
			seen[c] = true
		}
	default:
		return fmt.Errorf("space: parameter %q: unknown kind %d", p.Name, p.Kind)
	}
	return nil
}

// NumLevels returns the number of distinct values for discrete kinds
// (0 for Real).
func (p Param) NumLevels() int {
	switch p.Kind {
	case Integer:
		return int(math.Floor(p.Hi) - math.Ceil(p.Lo))
	case Categorical:
		return len(p.Categories)
	}
	return 0
}

// Decode maps a normalized coordinate u ∈ [0,1] to the parameter's value:
// float64 for Real, int for Integer, string for Categorical.
func (p Param) Decode(u float64) interface{} {
	if math.IsNaN(u) {
		// NaN survives both clamps below (every comparison is false)
		// and would index Categories with a huge negative value. Crowd
		// checkpoints make NaN reachable here; map it to the lower
		// bound instead of panicking.
		u = 0
	}
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	switch p.Kind {
	case Real:
		if p.LogScale {
			return p.Lo * math.Exp(u*math.Log(p.Hi/p.Lo))
		}
		return p.Lo + u*(p.Hi-p.Lo)
	case Integer:
		lo := math.Ceil(p.Lo)
		n := float64(p.NumLevels())
		var idx float64
		if p.LogScale {
			idx = math.Floor(math.Exp(u*math.Log(n+1))) - 1
		} else {
			idx = math.Floor(u * n)
		}
		if idx > n-1 {
			idx = n - 1
		}
		if idx < 0 {
			idx = 0
		}
		return int(lo + idx)
	case Categorical:
		n := len(p.Categories)
		idx := int(math.Floor(u * float64(n)))
		if idx >= n {
			idx = n - 1
		}
		return p.Categories[idx]
	}
	panic("space: Decode on invalid parameter")
}

// Encode maps a parameter value back to a normalized coordinate (the
// center of its cell for discrete kinds, so that Decode(Encode(v)) == v).
func (p Param) Encode(v interface{}) (float64, error) {
	switch p.Kind {
	case Real:
		f, ok := toFloat(v)
		if !ok {
			return 0, fmt.Errorf("space: parameter %q: expected number, got %T", p.Name, v)
		}
		if p.LogScale {
			if f <= 0 {
				return 0, fmt.Errorf("space: parameter %q: non-positive value %v on log scale", p.Name, f)
			}
			return clamp01(math.Log(f/p.Lo) / math.Log(p.Hi/p.Lo)), nil
		}
		return clamp01((f - p.Lo) / (p.Hi - p.Lo)), nil
	case Integer:
		f, ok := toFloat(v)
		if !ok {
			return 0, fmt.Errorf("space: parameter %q: expected integer, got %T", p.Name, v)
		}
		lo := math.Ceil(p.Lo)
		n := float64(p.NumLevels())
		idx := math.Round(f) - lo
		if idx < 0 || idx >= n {
			return 0, fmt.Errorf("space: parameter %q: value %v outside [%v,%v)", p.Name, f, p.Lo, p.Hi)
		}
		if p.LogScale {
			// Inverse of the log-index mapping, at the cell center.
			return clamp01(math.Log(idx+1.5) / math.Log(n+1)), nil
		}
		return (idx + 0.5) / n, nil
	case Categorical:
		s, ok := v.(string)
		if !ok {
			return 0, fmt.Errorf("space: parameter %q: expected string, got %T", p.Name, v)
		}
		for i, c := range p.Categories {
			if c == s {
				return (float64(i) + 0.5) / float64(len(p.Categories)), nil
			}
		}
		return 0, fmt.Errorf("space: parameter %q: unknown category %q", p.Name, s)
	}
	return 0, fmt.Errorf("space: Encode on invalid parameter kind")
}

func toFloat(v interface{}) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int:
		return float64(x), true
	case int32:
		return float64(x), true
	case int64:
		return float64(x), true
	case json.Number:
		f, err := x.Float64()
		return f, err == nil
	}
	return 0, false
}

func clamp01(u float64) float64 {
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// Space is an ordered list of parameters.
type Space struct {
	Params []Param
}

// New constructs a Space and validates every parameter.
func New(params ...Param) (*Space, error) {
	seen := make(map[string]bool, len(params))
	for _, p := range params {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if seen[p.Name] {
			return nil, fmt.Errorf("space: duplicate parameter name %q", p.Name)
		}
		seen[p.Name] = true
	}
	return &Space{Params: params}, nil
}

// MustNew is New that panics on error, for statically-known spaces.
func MustNew(params ...Param) *Space {
	s, err := New(params...)
	if err != nil {
		panic(err)
	}
	return s
}

// Dim returns the number of parameters.
func (s *Space) Dim() int { return len(s.Params) }

// Names returns the parameter names in order.
func (s *Space) Names() []string {
	out := make([]string, len(s.Params))
	for i, p := range s.Params {
		out[i] = p.Name
	}
	return out
}

// Kinds returns the parameter kinds in order.
func (s *Space) Kinds() []Kind {
	out := make([]Kind, len(s.Params))
	for i, p := range s.Params {
		out[i] = p.Kind
	}
	return out
}

// CategoricalMask returns the per-dimension categorical flags kernels
// take (Hamming rather than Euclidean distance on those dimensions), or
// nil when no parameter is categorical.
func (s *Space) CategoricalMask() []bool {
	var mask []bool
	for i, p := range s.Params {
		if p.Kind == Categorical {
			if mask == nil {
				mask = make([]bool, len(s.Params))
			}
			mask[i] = true
		}
	}
	return mask
}

// Index returns the position of the named parameter, or -1.
func (s *Space) Index(name string) int {
	for i, p := range s.Params {
		if p.Name == name {
			return i
		}
	}
	return -1
}

// Decode maps a normalized point to a name→value configuration.
func (s *Space) Decode(u []float64) map[string]interface{} {
	if len(u) != len(s.Params) {
		panic(fmt.Sprintf("space: Decode dimension mismatch %d vs %d", len(u), len(s.Params)))
	}
	out := make(map[string]interface{}, len(u))
	for i, p := range s.Params {
		out[p.Name] = p.Decode(u[i])
	}
	return out
}

// Encode maps a configuration back to a normalized point. Missing or
// invalid values produce an error.
func (s *Space) Encode(cfg map[string]interface{}) ([]float64, error) {
	u := make([]float64, len(s.Params))
	for i, p := range s.Params {
		v, ok := cfg[p.Name]
		if !ok {
			return nil, fmt.Errorf("space: missing value for parameter %q", p.Name)
		}
		e, err := p.Encode(v)
		if err != nil {
			return nil, err
		}
		u[i] = e
	}
	return u, nil
}

// Canonicalize snaps a normalized point to the cell centers of its
// discrete parameters so that two points decoding to the same
// configuration are numerically identical. Real coordinates pass
// through (clamped to [0,1]).
func (s *Space) Canonicalize(u []float64) []float64 {
	out := make([]float64, len(u))
	s.CanonicalizeInto(u, out)
	return out
}

// CanonicalizeInto is Canonicalize writing into a caller-owned slice of
// length Dim — the allocation-free form used by hot scoring loops.
// u and dst may be the same slice.
func (s *Space) CanonicalizeInto(u, dst []float64) {
	if len(u) != len(s.Params) || len(dst) != len(s.Params) {
		panic(fmt.Sprintf("space: CanonicalizeInto dimension mismatch %d/%d vs %d", len(u), len(dst), len(s.Params)))
	}
	for i, p := range s.Params {
		v := clamp01(u[i])
		switch p.Kind {
		case Real:
			dst[i] = v
		default:
			enc, err := p.Encode(p.Decode(v))
			if err != nil {
				// Decode always yields a valid value, so Encode cannot fail.
				panic(err)
			}
			dst[i] = enc
		}
	}
}

// Subspace returns a new space containing only the named parameters
// (the reduced search spaces of Sections VI-D and VI-E).
func (s *Space) Subspace(names ...string) (*Space, error) {
	params := make([]Param, 0, len(names))
	for _, n := range names {
		i := s.Index(n)
		if i < 0 {
			return nil, fmt.Errorf("space: unknown parameter %q", n)
		}
		params = append(params, s.Params[i])
	}
	return New(params...)
}
