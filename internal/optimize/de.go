package optimize

import (
	"math"
	"math/rand"

	"gptunecrowd/internal/parallel"
)

// DEConfig controls the differential-evolution global optimizer used for
// acquisition-function maximization over normalized box domains.
type DEConfig struct {
	Pop     int     // population size (default max(15, 5·dim))
	MaxGen  int     // generations (default 60)
	F       float64 // differential weight (default 0.7)
	CR      float64 // crossover probability (default 0.9)
	Lower   []float64
	Upper   []float64
	Seeds   [][]float64 // optional points injected into the initial population
	RandSrc *rand.Rand  // required
	// Workers bounds the parallelism of the initial-population scoring
	// (<= 0 means the engine default). f must then be safe for concurrent
	// calls. Generations stay sequential — selection feedback within a
	// generation is part of the DE/rand/1/bin semantics — so the search
	// trajectory is identical for every worker count.
	Workers int
}

// DifferentialEvolution minimizes f over the box [Lower, Upper] using
// DE/rand/1/bin with clamped bounds.
func DifferentialEvolution(f func([]float64) float64, cfg DEConfig) Result {
	dim := len(cfg.Lower)
	if dim == 0 || len(cfg.Upper) != dim {
		panic("optimize: DE requires matching Lower/Upper bounds")
	}
	if cfg.RandSrc == nil {
		panic("optimize: DE requires RandSrc")
	}
	if cfg.Pop == 0 {
		cfg.Pop = 5 * dim
		if cfg.Pop < 15 {
			cfg.Pop = 15
		}
	}
	if cfg.MaxGen == 0 {
		cfg.MaxGen = 60
	}
	if cfg.F == 0 {
		cfg.F = 0.7
	}
	if cfg.CR == 0 {
		cfg.CR = 0.9
	}
	rng := cfg.RandSrc
	evals := 0
	eval := func(x []float64) float64 {
		evals++
		v := f(x)
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}

	// The initial population is drawn sequentially (fixed RNG stream),
	// then scored in parallel into per-slot fitness values: evaluations
	// consume no randomness, so this is bit-identical to serial scoring.
	pop := make([][]float64, cfg.Pop)
	fit := make([]float64, cfg.Pop)
	for i := range pop {
		x := make([]float64, dim)
		if i < len(cfg.Seeds) {
			copy(x, cfg.Seeds[i])
			clampBox(x, cfg.Lower, cfg.Upper)
		} else {
			for d := 0; d < dim; d++ {
				x[d] = cfg.Lower[d] + rng.Float64()*(cfg.Upper[d]-cfg.Lower[d])
			}
		}
		pop[i] = x
	}
	parallel.For(cfg.Pop, cfg.Workers, func(i int) {
		v := f(pop[i])
		if math.IsNaN(v) {
			v = math.Inf(1)
		}
		fit[i] = v
	})
	evals += cfg.Pop

	trial := make([]float64, dim)
	for gen := 0; gen < cfg.MaxGen; gen++ {
		for i := range pop {
			a, b, c := distinct3(rng, cfg.Pop, i)
			jrand := rng.Intn(dim)
			for d := 0; d < dim; d++ {
				if d == jrand || rng.Float64() < cfg.CR {
					trial[d] = pop[a][d] + cfg.F*(pop[b][d]-pop[c][d])
				} else {
					trial[d] = pop[i][d]
				}
			}
			clampBox(trial, cfg.Lower, cfg.Upper)
			ft := eval(trial)
			if ft <= fit[i] {
				copy(pop[i], trial)
				fit[i] = ft
			}
		}
	}
	best := 0
	for i, v := range fit {
		if v < fit[best] {
			best = i
		}
	}
	return Result{X: append([]float64(nil), pop[best]...), F: fit[best], Evals: evals}
}

func clampBox(x, lo, hi []float64) {
	for d := range x {
		if x[d] < lo[d] {
			x[d] = lo[d]
		}
		if x[d] > hi[d] {
			x[d] = hi[d]
		}
	}
}

func distinct3(rng *rand.Rand, n, exclude int) (int, int, int) {
	pick := func(used ...int) int {
		for {
			v := rng.Intn(n)
			ok := v != exclude
			for _, u := range used {
				if v == u {
					ok = false
				}
			}
			if ok || n <= len(used)+1 {
				return v
			}
		}
	}
	a := pick()
	b := pick(a)
	c := pick(a, b)
	return a, b, c
}
