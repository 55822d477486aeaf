// Package optimize provides the optimizers that drive surrogate-model
// hyperparameter fitting and acquisition-function maximization: L-BFGS
// with backtracking line search, differential evolution, and a
// multi-start driver. All routines minimize.
package optimize

import "math"

// Result reports the outcome of a minimization.
type Result struct {
	X     []float64 // best point found
	F     float64   // objective value at X
	Evals int       // number of objective evaluations
}

// LBFGSConfig controls the limited-memory BFGS minimizer.
type LBFGSConfig struct {
	MaxIter  int     // maximum iterations (default 150)
	Memory   int     // number of correction pairs (default 8)
	TolGrad  float64 // gradient-infinity-norm stopping tolerance (default 1e-6)
	TolF     float64 // relative function-decrease tolerance (default 1e-12)
	InitStep float64 // first line-search step (default 1)
}

func (c *LBFGSConfig) defaults() {
	if c.MaxIter == 0 {
		c.MaxIter = 150
	}
	if c.Memory == 0 {
		c.Memory = 8
	}
	if c.TolGrad == 0 {
		c.TolGrad = 1e-6
	}
	if c.TolF == 0 {
		c.TolF = 1e-12
	}
	if c.InitStep == 0 {
		c.InitStep = 1
	}
}

// LBFGS minimizes f (which returns value and gradient) starting from x0
// using two-loop-recursion L-BFGS with an Armijo backtracking line
// search. It is robust to f returning +Inf (the line search backtracks
// past infeasible points).
func LBFGS(f func(x []float64) (float64, []float64), x0 []float64, cfg LBFGSConfig) Result {
	cfg.defaults()
	dim := len(x0)
	x := append([]float64(nil), x0...)
	evals := 0
	fx, g := f(x)
	evals++
	if math.IsNaN(fx) {
		fx = math.Inf(1)
	}

	sHist := make([][]float64, 0, cfg.Memory)
	yHist := make([][]float64, 0, cfg.Memory)
	rhoHist := make([]float64, 0, cfg.Memory)

	dir := make([]float64, dim)
	xNew := make([]float64, dim)
	alphaBuf := make([]float64, cfg.Memory)

	for iter := 0; iter < cfg.MaxIter; iter++ {
		if infNorm(g) < cfg.TolGrad {
			break
		}
		// Two-loop recursion: dir = -H·g.
		copy(dir, g)
		k := len(sHist)
		for i := k - 1; i >= 0; i-- {
			alphaBuf[i] = rhoHist[i] * dot(sHist[i], dir)
			axpy(-alphaBuf[i], yHist[i], dir)
		}
		if k > 0 {
			ys := dot(yHist[k-1], sHist[k-1])
			yy := dot(yHist[k-1], yHist[k-1])
			if yy > 0 {
				scale(ys/yy, dir)
			}
		}
		for i := 0; i < k; i++ {
			beta := rhoHist[i] * dot(yHist[i], dir)
			axpy(alphaBuf[i]-beta, sHist[i], dir)
		}
		for i := range dir {
			dir[i] = -dir[i]
		}
		// Ensure a descent direction; otherwise reset to steepest descent.
		dg := dot(dir, g)
		if dg >= 0 {
			for i := range dir {
				dir[i] = -g[i]
			}
			dg = dot(dir, g)
			sHist, yHist, rhoHist = sHist[:0], yHist[:0], rhoHist[:0]
		}
		// Armijo backtracking.
		step := cfg.InitStep
		if iter == 0 {
			// Conservative first step scaled by gradient magnitude.
			gn := infNorm(g)
			if gn > 1 {
				step = 1 / gn
			}
		}
		const c1 = 1e-4
		var fNew float64
		var gNew []float64
		ok := false
		for ls := 0; ls < 40; ls++ {
			for i := range xNew {
				xNew[i] = x[i] + step*dir[i]
			}
			fNew, gNew = f(xNew)
			evals++
			if !math.IsNaN(fNew) && fNew <= fx+c1*step*dg {
				ok = true
				break
			}
			step *= 0.5
		}
		if !ok {
			break // line search failed; x is our best answer
		}
		// Curvature update.
		s := make([]float64, dim)
		y := make([]float64, dim)
		for i := range s {
			s[i] = xNew[i] - x[i]
			y[i] = gNew[i] - g[i]
		}
		sy := dot(s, y)
		if sy > 1e-12 {
			if len(sHist) == cfg.Memory {
				sHist = sHist[1:]
				yHist = yHist[1:]
				rhoHist = rhoHist[1:]
			}
			sHist = append(sHist, s)
			yHist = append(yHist, y)
			rhoHist = append(rhoHist, 1/sy)
		}
		relDec := (fx - fNew) / math.Max(1, math.Abs(fx))
		copy(x, xNew)
		fx, g = fNew, gNew
		if relDec >= 0 && relDec < cfg.TolF {
			break
		}
	}
	return Result{X: x, F: fx, Evals: evals}
}

// NumericGradient wraps a scalar objective with central finite
// differences so that it can be fed to LBFGS when analytic gradients are
// unavailable.
func NumericGradient(f func([]float64) float64, h float64) func([]float64) (float64, []float64) {
	if h == 0 {
		h = 1e-6
	}
	return func(x []float64) (float64, []float64) {
		fx := f(x)
		g := make([]float64, len(x))
		xp := append([]float64(nil), x...)
		for i := range x {
			step := h * math.Max(1, math.Abs(x[i]))
			xp[i] = x[i] + step
			fp := f(xp)
			xp[i] = x[i] - step
			fm := f(xp)
			xp[i] = x[i]
			g[i] = (fp - fm) / (2 * step)
		}
		return fx, g
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func axpy(alpha float64, x, y []float64) {
	for i, v := range x {
		y[i] += alpha * v
	}
}

func scale(s float64, x []float64) {
	for i := range x {
		x[i] *= s
	}
}

func infNorm(x []float64) float64 {
	var m float64
	for _, v := range x {
		a := math.Abs(v)
		if a > m {
			m = a
		}
	}
	return m
}
