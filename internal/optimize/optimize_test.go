package optimize

import (
	"math"
	"math/rand"
	"testing"
)

func sphere(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s
}

func rosenbrock(x []float64) float64 {
	var s float64
	for i := 0; i+1 < len(x); i++ {
		a := x[i+1] - x[i]*x[i]
		b := 1 - x[i]
		s += 100*a*a + b*b
	}
	return s
}

func rosenbrockGrad(x []float64) (float64, []float64) {
	g := make([]float64, len(x))
	var s float64
	for i := 0; i+1 < len(x); i++ {
		a := x[i+1] - x[i]*x[i]
		b := 1 - x[i]
		s += 100*a*a + b*b
		g[i] += -400*x[i]*a - 2*b
		g[i+1] += 200 * a
	}
	return s, g
}

func TestLBFGSRosenbrock(t *testing.T) {
	r := LBFGS(rosenbrockGrad, []float64{-1.2, 1}, LBFGSConfig{MaxIter: 500})
	if math.Abs(r.X[0]-1) > 1e-4 || math.Abs(r.X[1]-1) > 1e-4 {
		t.Fatalf("LBFGS rosenbrock x = %v (f=%v)", r.X, r.F)
	}
}

func TestLBFGSQuadraticFast(t *testing.T) {
	f := func(x []float64) (float64, []float64) {
		g := make([]float64, len(x))
		var s float64
		for i, v := range x {
			s += float64(i+1) * v * v
			g[i] = 2 * float64(i+1) * v
		}
		return s, g
	}
	r := LBFGS(f, []float64{5, -3, 2, 1}, LBFGSConfig{})
	if r.F > 1e-10 {
		t.Fatalf("quadratic not solved: f=%v", r.F)
	}
}

func TestLBFGSNumericGradient(t *testing.T) {
	fg := NumericGradient(rosenbrock, 0)
	r := LBFGS(fg, []float64{-1.2, 1}, LBFGSConfig{MaxIter: 800})
	if math.Abs(r.X[0]-1) > 1e-2 || math.Abs(r.X[1]-1) > 1e-2 {
		t.Fatalf("numeric-gradient LBFGS x = %v", r.X)
	}
}

func TestNumericGradientAccuracy(t *testing.T) {
	fg := NumericGradient(sphere, 0)
	x := []float64{1, -2, 0.5}
	_, g := fg(x)
	for i, v := range x {
		if math.Abs(g[i]-2*v) > 1e-5 {
			t.Fatalf("grad[%d] = %v, want %v", i, g[i], 2*v)
		}
	}
}

func TestLBFGSInfeasibleStart(t *testing.T) {
	// Objective infinite on half the domain; line search must recover.
	f := func(x []float64) (float64, []float64) {
		if x[0] > 4 {
			return math.Inf(1), []float64{0}
		}
		return (x[0] - 2) * (x[0] - 2), []float64{2 * (x[0] - 2)}
	}
	r := LBFGS(f, []float64{3.9}, LBFGSConfig{})
	if math.Abs(r.X[0]-2) > 1e-4 {
		t.Fatalf("x = %v", r.X)
	}
}

func TestDifferentialEvolutionMultimodal(t *testing.T) {
	// Rastrigin in 2-D over [-5.12, 5.12]: DE should find the global bowl.
	rastrigin := func(x []float64) float64 {
		s := 10.0 * float64(len(x))
		for _, v := range x {
			s += v*v - 10*math.Cos(2*math.Pi*v)
		}
		return s
	}
	r := DifferentialEvolution(rastrigin, DEConfig{
		Lower:   []float64{-5.12, -5.12},
		Upper:   []float64{5.12, 5.12},
		MaxGen:  120,
		RandSrc: rand.New(rand.NewSource(1)),
	})
	if r.F > 1e-3 {
		t.Fatalf("DE rastrigin f = %v at %v", r.F, r.X)
	}
}

func TestDESeedsRespected(t *testing.T) {
	// With the optimum injected as a seed, DE must never lose it
	// (selection is elitist per slot).
	f := func(x []float64) float64 { return sphere(x) }
	r := DifferentialEvolution(f, DEConfig{
		Lower:   []float64{-1, -1},
		Upper:   []float64{1, 1},
		MaxGen:  5,
		Seeds:   [][]float64{{0, 0}},
		RandSrc: rand.New(rand.NewSource(2)),
	})
	if r.F > 1e-12 {
		t.Fatalf("seeded optimum lost: f=%v", r.F)
	}
}

func TestDEClampsToBounds(t *testing.T) {
	f := func(x []float64) float64 { return -x[0] } // pushes to upper bound
	r := DifferentialEvolution(f, DEConfig{
		Lower:   []float64{0},
		Upper:   []float64{2},
		MaxGen:  40,
		RandSrc: rand.New(rand.NewSource(3)),
	})
	if r.X[0] < 0 || r.X[0] > 2 {
		t.Fatalf("out of bounds: %v", r.X)
	}
	if math.Abs(r.X[0]-2) > 1e-9 {
		t.Fatalf("bound optimum missed: %v", r.X)
	}
}

func TestMultiStart(t *testing.T) {
	// Two basins: multi-start from both sides must find the deeper one.
	f := func(x []float64) float64 {
		a := x[0] + 2
		b := x[0] - 3
		return math.Min(a*a+1, b*b) // global min 0 at x=3
	}
	run := func(workers int) Result {
		return MultiStartParallel([][]float64{{-2.1}, {2.9}}, workers, func(_ int, x0 []float64) Result {
			return LBFGS(NumericGradient(f, 1e-6), x0, LBFGSConfig{})
		})
	}
	r := run(1)
	if math.Abs(r.X[0]-3) > 1e-3 {
		t.Fatalf("multistart found %v", r.X)
	}
	if r2 := run(2); r2.X[0] != r.X[0] || r2.F != r.F || r2.Evals != r.Evals {
		t.Fatalf("workers=2 result %+v differs from workers=1 %+v", r2, r)
	}
}
