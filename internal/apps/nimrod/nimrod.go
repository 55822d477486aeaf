// Package nimrod models the NIMROD extended-MHD fusion code of the
// paper's large-scale case study (Section VI-C): a time-marching loop
// whose every step solves nonsymmetric sparse systems with block-Jacobi
// preconditioned GMRES, each Jacobi block factorized by SuperLU_DIST's
// 3-D algorithm. Task parameters (mx, my, lphi) set the mesh and
// Fourier resolution; tuning parameters are Table III's
// [NSUP, NREL, nbx, nby, npz]. The model also reproduces the paper's
// failure mode: parameter combinations that exhaust node memory return
// an out-of-memory error, which the tuner must absorb.
package nimrod

import (
	"fmt"
	"math"

	"gptunecrowd/internal/apps/noise"
	"gptunecrowd/internal/core"
	"gptunecrowd/internal/machine"
	"gptunecrowd/internal/space"
)

// App is a NIMROD simulator bound to one machine allocation.
type App struct {
	Machine    machine.Machine
	TimeSteps  int // default 30, as in the paper
	NoiseSigma float64
	Seed       int64
}

// New returns a NIMROD simulator.
func New(m machine.Machine) *App {
	return &App{Machine: m, TimeSteps: 30, NoiseSigma: 0.04}
}

// ParamSpace returns the Table III tuning space.
func (a *App) ParamSpace() *space.Space {
	return space.MustNew(
		space.Param{Name: "NSUP", Kind: space.Integer, Lo: 30, Hi: 300},
		space.Param{Name: "NREL", Kind: space.Integer, Lo: 10, Hi: 40},
		space.Param{Name: "nbx", Kind: space.Integer, Lo: 1, Hi: 3},
		space.Param{Name: "nby", Kind: space.Integer, Lo: 1, Hi: 3},
		space.Param{Name: "npz", Kind: space.Integer, Lo: 0, Hi: 5},
	)
}

// TaskSpace returns the task space (mesh and Fourier resolution).
func (a *App) TaskSpace() *space.Space {
	return space.MustNew(
		space.Param{Name: "mx", Kind: space.Integer, Lo: 3, Hi: 8},
		space.Param{Name: "my", Kind: space.Integer, Lo: 3, Hi: 10},
		space.Param{Name: "lphi", Kind: space.Integer, Lo: 0, Hi: 4},
	)
}

// Problem assembles the core tuning problem.
func (a *App) Problem() *core.Problem {
	return &core.Problem{
		Name:       "NIMROD",
		TaskSpace:  a.TaskSpace(),
		ParamSpace: a.ParamSpace(),
		Output:     space.OutputSpace{Outputs: []space.OutputParam{{Name: "runtime", Type: "real"}}},
		Evaluator: core.EvaluatorFunc(func(task, params map[string]interface{}) (float64, error) {
			return a.Evaluate(task, params)
		}),
	}
}

// Evaluate returns the modeled main-loop runtime in seconds, or an
// error for configurations that run out of memory.
func (a *App) Evaluate(task, params map[string]interface{}) (float64, error) {
	mx, ok1 := intVal(task["mx"])
	my, ok2 := intVal(task["my"])
	lphi, ok3 := intVal(task["lphi"])
	if !ok1 || !ok2 || !ok3 {
		return 0, fmt.Errorf("nimrod: task needs integer mx, my, lphi")
	}
	nsup, ok1 := intVal(params["NSUP"])
	nrel, ok2 := intVal(params["NREL"])
	nbx, ok3 := intVal(params["nbx"])
	nby, ok4 := intVal(params["nby"])
	npz, ok5 := intVal(params["npz"])
	if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 {
		return 0, fmt.Errorf("nimrod: params need integer NSUP, NREL, nbx, nby, npz")
	}
	t, err := a.runtime(mx, my, lphi, nsup, nrel, nbx, nby, npz)
	if err != nil {
		return 0, err
	}
	t *= noise.Multiplier(a.Seed, a.NoiseSigma,
		float64(mx), float64(my), float64(lphi),
		float64(nsup), float64(nrel), float64(nbx), float64(nby), float64(npz))
	return t, nil
}

func (a *App) runtime(mx, my, lphi, nsup, nrel, nbx, nby, npz int) (float64, error) {
	mach := a.Machine
	steps := a.TimeSteps
	if steps <= 0 {
		steps = 30
	}
	// Problem size.
	const polyDofs = 54     // high-order finite-element dofs per cell
	const rowCoupling = 300 // nonzeros per matrix row from block coupling
	cells := float64(int(1)<<uint(mx)) * float64(int(1)<<uint(my))
	ndof := cells * polyDofs
	nmodes := float64((int(1)<<uint(lphi))/3 + 1)

	P := float64(mach.TotalCores())
	zProcs := float64(int(1) << uint(npz))
	if zProcs > P {
		return 0, fmt.Errorf("nimrod: npz=%d exceeds available ranks", npz)
	}
	p2d := math.Floor(P / zProcs)
	if p2d < 1 {
		p2d = 1
	}

	// --- Memory check (the paper's OOM failure mode). SuperLU's 3-D
	// algorithm trades memory for communication: panels are replicated
	// across the z dimension, so the factor footprint grows linearly
	// with 2^npz; large NSUP further inflates fill.
	fill := 9.0 * (1 + float64(nsup)/250.0)
	nnzA := ndof * rowCoupling * nmodes
	const factorBytes = 16  // value + index + supernode metadata
	const workspaceMult = 8 // Krylov basis, halo buffers, assembly scratch
	needGB := nnzA * fill * factorBytes * workspaceMult / 1e9 * zProcs
	if needGB > mach.TotalMemGB()*0.9 {
		return 0, fmt.Errorf("nimrod: out of memory: need %.0f GB of %.0f GB", needGB, mach.TotalMemGB())
	}

	// --- Assembly: blocking parameters tile the (x, y) loops; the sweet
	// spot depends on the cache size, i.e. on the architecture.
	bx := float64(int(1) << uint(nbx))
	by := float64(int(1) << uint(nby))
	optTile := 4.0 // Haswell-ish; weak-core machines prefer smaller tiles
	if mach.SerialPenalty > 2 {
		optTile = 2.0
	}
	tileDev := math.Abs(math.Log2(bx * by / optTile)) // 0 at the optimum
	asmEff := 1 / (1 + 0.18*tileDev)
	tAsm := ndof * nmodes * 900 / (P * mach.GFlopsPerCore * 1e9 / mach.SerialPenalty * asmEff)

	// --- Factorization (once per step for the Jacobi blocks): SuperLU
	// 3-D with supernode efficiency. The 3-D algorithm keeps all P ranks
	// computing but moves panel communication off the critical path as
	// the z dimension grows; past the sweet spot the extra reduction
	// latency across z dominates.
	s := float64(nsup)
	eSup := (s / (s + 70)) * (1 / (1 + math.Pow(s/350, 2)))
	eRel := 1 - 0.03*math.Abs(float64(nrel)-22)/22
	factorFlops := nnzA * fill * fill * float64(a.avgSupernodeRows()) // supernodal update volume
	rate := P * mach.GFlopsPerCore * 1e9 / mach.SerialPenalty * eSup * eRel
	commOverhead := 0.9*math.Log2(p2d+1)/math.Sqrt(zProcs) +
		0.12*(zProcs-1)*mach.NetLatencyUS
	tFactor := factorFlops / rate * (1 + commOverhead)

	// --- GMRES sweeps: SpMV plus block triangular solves.
	iters := 18.0
	spmvBytes := nnzA * 12
	bwAgg := float64(mach.Nodes) * mach.NetBWGBs * 1e9 * 4 // cache-aware effective bandwidth
	tSolve := iters * (spmvBytes/bwAgg + fill*nnzA*4/rate)

	perStep := tAsm + tFactor + tSolve
	return float64(steps) * perStep, nil
}

// avgSupernodeRows is a small constant factor in the supernodal flop
// model, kept as a method for future matrix-dependent refinement.
func (a *App) avgSupernodeRows() int { return 4 }

func intVal(v interface{}) (int, bool) {
	switch x := v.(type) {
	case int:
		return x, true
	case int64:
		return int(x), true
	case float64:
		return int(math.Round(x)), true
	}
	return 0, false
}
