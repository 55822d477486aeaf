package optimize

import "gptunecrowd/internal/parallel"

// MultiStartParallel runs the local minimizer from each start point on
// the engine's worker count and returns the best result. minimize
// receives the restart index so callers can hand each concurrent run its
// own scratch state (objective buffers, RNG streams).
//
// Determinism: each run depends only on its start point, and the winner
// is chosen by a strictly-ordered argmin over restart indices (first
// index wins ties) — so the outcome is bit-identical for every worker
// count.
func MultiStartParallel(starts [][]float64, minimize func(run int, x0 []float64) Result) Result {
	if len(starts) == 0 {
		panic("optimize: MultiStartParallel requires at least one start")
	}
	results := make([]Result, len(starts))
	parallel.For(len(starts), 0, func(i int) {
		results[i] = minimize(i, starts[i])
	})
	best := results[0]
	for _, r := range results[1:] {
		best.Evals += r.Evals
		if r.F < best.F {
			best.X, best.F = r.X, r.F
		}
	}
	return best
}
