package sensitivity

import (
	"math"
	"strconv"
	"testing"

	"gptunecrowd/internal/parallel"
)

// Every design point writes its own output slot and the estimators run
// serially, so the indices are bit-identical for every worker count.
func TestAnalyzeDeterministicAcrossWorkers(t *testing.T) {
	f := func(u []float64) float64 {
		return math.Sin(2*math.Pi*u[0]) + 7*math.Sin(2*math.Pi*u[1])*math.Sin(2*math.Pi*u[1]) + 0.1*u[2]
	}
	run := func(workers int) *Result {
		t.Setenv(parallel.EnvWorkers, strconv.Itoa(workers))
		r, err := Analyze(f, 3, nil, Options{N: 128, NBoot: 20, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	ref := run(1)
	for _, w := range []int{2, 8} {
		r := run(w)
		for d := 0; d < 3; d++ {
			if r.S1[d] != ref.S1[d] || r.ST[d] != ref.ST[d] ||
				r.S1Conf[d] != ref.S1Conf[d] || r.STConf[d] != ref.STConf[d] {
				t.Fatalf("workers=%d: index %d differs: S1 %v vs %v, ST %v vs %v",
					w, d, r.S1[d], ref.S1[d], r.ST[d], ref.ST[d])
			}
		}
	}
}
