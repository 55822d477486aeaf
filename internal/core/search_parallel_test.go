package core

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"gptunecrowd/internal/parallel"
	"gptunecrowd/internal/space"
)

// SearchNext must propose the exact same point for every worker count:
// the candidate pool and DE population are drawn from the RNG before
// any parallel scoring, and the scoring itself consumes no randomness.
func TestSearchNextDeterministicAcrossWorkers(t *testing.T) {
	surr := SurrogateFunc(func(x []float64) (float64, float64) {
		return math.Sin(5*x[0]) + (x[1]-0.4)*(x[1]-0.4), 0.1 + 0.05*x[0]
	})
	ps := space.MustNew(
		space.Param{Name: "a", Kind: space.Real, Lo: 0, Hi: 1},
		space.Param{Name: "b", Kind: space.Real, Lo: 0, Hi: 1},
	)
	h := &History{}
	h.Append(Sample{ParamU: []float64{0.2, 0.8}, Y: 0.5})
	h.Append(Sample{ParamU: []float64{0.7, 0.1}, Y: -0.2})
	search := func(workers int) []float64 {
		t.Setenv(parallel.EnvWorkers, strconv.Itoa(workers))
		rng := rand.New(rand.NewSource(11))
		return SearchNext(surr, ps, EI{}, h, rng, SearchOptions{Candidates: 128, DEGens: 10})
	}
	ref := search(1)
	for _, w := range []int{2, 8} {
		got := search(w)
		for d := range ref {
			if got[d] != ref[d] {
				t.Fatalf("workers=%d: proposal %v differs from serial %v", w, got, ref)
			}
		}
	}
}
