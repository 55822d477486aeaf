// Package sample provides the experimental-design generators used across
// the tuner: Latin hypercube designs for initial samples, a Sobol'
// low-discrepancy sequence, and Saltelli cross-sampling for variance-based
// sensitivity analysis.
package sample

import "fmt"

// sobolMaxDim is the largest supported dimension. Dimensions 2–21 use
// Joe & Kuo (2008) initial direction numbers; dimensions 22–40 use
// degree-7/8 primitive polynomials with deterministically generated odd
// initial values (valid direction numbers, slightly weaker
// equidistribution — more than adequate for Saltelli designs over the
// paper's 12-parameter spaces, which need 2·12 = 24 dimensions).
const sobolMaxDim = 40

// Direction-number initialisation from the Joe & Kuo (2008) "new-joe-kuo-6"
// table: for each dimension d >= 2 we store the primitive polynomial degree
// s, the polynomial coefficient a, and the initial direction numbers m_i.
// Dimension 1 uses the van der Corput sequence (all m_i = 1).
var sobolInit = []struct {
	s, a uint
	m    []uint32
}{
	{1, 0, []uint32{1}},                        // d=2
	{2, 1, []uint32{1, 3}},                     // d=3
	{3, 1, []uint32{1, 3, 1}},                  // d=4
	{3, 2, []uint32{1, 1, 1}},                  // d=5
	{4, 1, []uint32{1, 1, 3, 3}},               // d=6
	{4, 4, []uint32{1, 3, 5, 13}},              // d=7
	{5, 2, []uint32{1, 1, 5, 5, 17}},           // d=8
	{5, 4, []uint32{1, 1, 5, 5, 5}},            // d=9
	{5, 7, []uint32{1, 1, 7, 11, 19}},          // d=10
	{5, 11, []uint32{1, 1, 5, 1, 1}},           // d=11
	{5, 13, []uint32{1, 1, 1, 3, 11}},          // d=12
	{5, 14, []uint32{1, 3, 5, 5, 31}},          // d=13
	{6, 1, []uint32{1, 3, 3, 9, 7, 49}},        // d=14
	{6, 13, []uint32{1, 1, 1, 15, 21, 21}},     // d=15
	{6, 16, []uint32{1, 3, 1, 13, 27, 49}},     // d=16
	{6, 19, []uint32{1, 1, 1, 15, 7, 5}},       // d=17
	{6, 22, []uint32{1, 3, 1, 15, 13, 25}},     // d=18
	{6, 25, []uint32{1, 1, 5, 5, 19, 61}},      // d=19
	{7, 1, []uint32{1, 3, 7, 11, 23, 15, 103}}, // d=20
	{7, 4, []uint32{1, 3, 7, 13, 13, 15, 69}},  // d=21
}

// extraPolys are primitive polynomials over GF(2) used for dimensions
// beyond the embedded Joe–Kuo table: (degree, interior-coefficient
// encoding) pairs, degree-7 then degree-8.
var extraPolys = []struct{ s, a uint }{
	{7, 7}, {7, 8}, {7, 14}, {7, 19}, {7, 21}, {7, 28}, {7, 31}, {7, 32},
	{7, 37}, {7, 41}, {7, 42}, {7, 50}, {7, 55}, {7, 56}, {7, 59}, {7, 62},
	{8, 14}, {8, 21}, {8, 22},
}

// extraInit deterministically generates valid initial direction numbers
// (odd, m_i < 2^i) for dimension d > 21, using a fixed linear
// congruential stream so sequences are reproducible.
func extraInit(d int) (s, a uint, m []uint32) {
	p := extraPolys[d-22]
	m = make([]uint32, p.s)
	state := uint64(d)*6364136223846793005 + 1442695040888963407
	for i := range m {
		state = state*6364136223846793005 + 1442695040888963407
		limit := uint32(1) << uint(i+1) // m_i must lie in [1, 2^{i+1})
		v := uint32(state>>33) % limit
		m[i] = v | 1 // force odd
	}
	return p.s, p.a, m
}

// SobolSeq generates the Sobol' low-discrepancy sequence in [0,1)^dim
// using Gray-code ordering (Antonov–Saleev). It is deterministic; two
// sequences with the same dimension yield identical points.
type SobolSeq struct {
	dim   int
	count uint32
	v     [][]uint32 // v[d][j]: direction numbers scaled by 2^32
	x     []uint32   // current integer state per dimension
}

const sobolBits = 32

// NewSobolSeq returns a Sobol' sequence over dim dimensions
// (1 <= dim <= 21).
func NewSobolSeq(dim int) (*SobolSeq, error) {
	if dim < 1 || dim > sobolMaxDim {
		return nil, fmt.Errorf("sample: Sobol dimension %d out of range [1,%d]", dim, sobolMaxDim)
	}
	s := &SobolSeq{dim: dim, v: make([][]uint32, dim), x: make([]uint32, dim)}
	for d := 0; d < dim; d++ {
		v := make([]uint32, sobolBits)
		if d == 0 {
			for j := 0; j < sobolBits; j++ {
				v[j] = 1 << uint(sobolBits-1-j)
			}
		} else {
			var deg int
			var a uint
			var m []uint32
			if d <= 20 {
				init := sobolInit[d-1]
				deg, a, m = int(init.s), init.a, init.m
			} else {
				s, ax, mx := extraInit(d + 1) // extraInit takes 1-based dim
				deg, a, m = int(s), ax, mx
			}
			for j := 0; j < deg; j++ {
				v[j] = m[j] << uint(sobolBits-1-j)
			}
			for j := deg; j < sobolBits; j++ {
				v[j] = v[j-deg] ^ (v[j-deg] >> uint(deg))
				for k := 1; k < deg; k++ {
					if (a>>(uint(deg-1-k)))&1 == 1 {
						v[j] ^= v[j-k]
					}
				}
			}
		}
		s.v[d] = v
	}
	return s, nil
}

// Dim returns the sequence dimension.
func (s *SobolSeq) Dim() int { return s.dim }

// Next fills dst (length dim) with the next point of the sequence and
// returns it. The first emitted point is (0, …, 0); callers that dislike
// the origin can call Skip first.
func (s *SobolSeq) Next(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, s.dim)
	}
	if len(dst) != s.dim {
		panic("sample: SobolSeq.Next destination length mismatch")
	}
	const scale = 1.0 / (1 << 32)
	for d := 0; d < s.dim; d++ {
		dst[d] = float64(s.x[d]) * scale
	}
	// Advance state using the Gray-code bit of count.
	c := 0
	n := s.count
	for n&1 == 1 {
		n >>= 1
		c++
	}
	for d := 0; d < s.dim; d++ {
		s.x[d] ^= s.v[d][c]
	}
	s.count++
	return dst
}

// Skip discards n points.
func (s *SobolSeq) Skip(n int) {
	buf := make([]float64, s.dim)
	for i := 0; i < n; i++ {
		s.Next(buf)
	}
}
