package main

import (
	"math"
	"math/rand"

	"gptunecrowd/internal/crowd"
	"gptunecrowd/internal/space"
)

// unitSquare is the 2-D real tuning space every serving workload uses.
func unitSquare() *space.Space {
	return space.MustNew(
		space.Param{Name: "x", Kind: space.Real, Lo: 0, Hi: 1},
		space.Param{Name: "y", Kind: space.Real, Lo: 0, Hi: 1},
	)
}

// objective is the analytic function the serving workloads tune: a bowl
// whose optimum moves with the task value t, offset by 1 like a run time
// that cannot be 0.
func objective(x, y, t float64) float64 {
	s := math.Mod(t, 8) / 8
	cx, cy := 0.3+0.3*s, 0.6-0.3*s
	return 1 + (x-cx)*(x-cx) + (y-cy)*(y-cy)
}

// proposalScore is what quality_y averages on the serving workloads:
// 1 plus ten times the squared distance of a served proposal from its
// task's optimum. The factor spreads the scale so that proposals gone
// random (distance² ≈ 0.15) read 2.5 against a healthy 1.00x, well
// outside any bound; the 1 keeps the metric away from 0.
func proposalScore(x, y, t float64) float64 { return 1 + 10*(objective(x, y, t)-1) }

// taskValue reads the task parameter "t" (absent means 0).
func taskValue(task map[string]interface{}) float64 {
	t, _ := task["t"].(float64)
	return t
}

// taskParams builds the task map the way it round-trips through JSON.
func taskParams(t int) map[string]interface{} {
	return map[string]interface{}{"t": float64(t)}
}

// noise is the standard deviation of the measurement noise on every
// sample. It is small on purpose: at 0.05 the fitted hyperparameters —
// and with them proposal quality, refit counts and tail latency — swing
// from seed to seed (p95 on suggest_hot_n256 spread 100 % over ten
// seeds), which measures the data, not the program.
const noise = 0.01

// sampleAt is one noisy evaluation at (x, y).
func sampleAt(rng *rand.Rand, problem string, task map[string]interface{}, x, y float64) crowd.FuncEval {
	return crowd.FuncEval{
		TuningProblemName: problem,
		TaskParams:        task,
		TuningParams:      map[string]interface{}{"x": x, "y": y},
		Output:            objective(x, y, taskValue(task)) + noise*rng.NormFloat64(),
	}
}

// randomSample is one noisy evaluation at a uniform random point.
func randomSample(rng *rand.Rand, problem string, task map[string]interface{}) crowd.FuncEval {
	return sampleAt(rng, problem, task, rng.Float64(), rng.Float64())
}

func randomSamples(rng *rand.Rand, problem string, task map[string]interface{}, n int) []crowd.FuncEval {
	out := make([]crowd.FuncEval, n)
	for i := range out {
		out[i] = randomSample(rng, problem, task)
	}
	return out
}

// xy extracts the tuning point of a sample or proposal.
func xy(params map[string]interface{}) (x, y float64, ok bool) {
	x, okx := params["x"].(float64)
	y, oky := params["y"].(float64)
	return x, y, okx && oky && !math.IsNaN(x) && !math.IsNaN(y)
}

// unitXY builds n normalized training points and noisy targets for the
// numeric-layer probes, from the same objective the workloads serve.
func unitXY(rng *rand.Rand, n int) ([][]float64, []float64) {
	X := make([][]float64, n)
	Y := make([]float64, n)
	for i := range X {
		x, y := rng.Float64(), rng.Float64()
		X[i] = []float64{x, y}
		Y[i] = objective(x, y, 0) + noise*rng.NormFloat64()
	}
	return X, Y
}
