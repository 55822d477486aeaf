package tla

import (
	"gptunecrowd/internal/gp"
	"gptunecrowd/internal/lcm"
)

type (
	LCMFitFunc    = func([][][]float64, [][]float64, lcm.Options) (*lcm.Model, error)
	TargetFitFunc = func([][]float64, []float64, gp.Options) (*gp.GP, error)
)

// SwapFits wraps the LCM fit and the per-round target GP fit (a nil
// wrapper keeps the real one) until the returned restore runs.
func SwapFits(wrapLCM func(real LCMFitFunc) LCMFitFunc, wrapTarget func(real TargetFitFunc) TargetFitFunc) (restore func()) {
	origLCM, origTarget := lcmFit, targetFit
	if wrapLCM != nil {
		lcmFit = wrapLCM(origLCM)
	}
	if wrapTarget != nil {
		targetFit = wrapTarget(origTarget)
	}
	return func() { lcmFit, targetFit = origLCM, origTarget }
}
