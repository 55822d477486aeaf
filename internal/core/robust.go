package core

import (
	"math"
	"sort"
)

// The robust-ingestion step runs before every surrogate fit.
const (
	// madThreshold is the outlier cutoff in robust standard deviations
	// (1.4826·MAD): samples farther than this from the median objective
	// are excluded from the fit. Generous enough to keep genuinely
	// bad-but-real configurations, tight enough to drop adversarial
	// orders-of-magnitude values.
	madThreshold = 6.0
	// penaltyFactor sets the imputed objective for failed evaluations:
	// worst kept value + penaltyFactor·(kept spread).
	penaltyFactor = 1.5
)

// RobustInfo reports what the robust-ingestion step did to one
// history view.
type RobustInfo struct {
	OK        int // successful finite samples kept
	Outliers  int // successful samples excluded by the MAD filter
	Imputed   int // failed evaluations penalty-imputed into the fit
	NonFinite int // successful samples dropped for a non-finite objective
}

// RobustXY is the trust-hardened sibling of XY: the sample view
// surrogate fits should consume when the history may contain crowd
// noise. It
//
//   - drops successful samples with a non-finite objective (defense in
//     depth — Session.Observe already converts those to failures),
//   - excludes successful samples whose objective is a MAD outlier
//     (|y − median| > madThreshold · 1.4826 · MAD), and
//   - imputes every failed evaluation at a penalty value (worst kept
//     objective + penaltyFactor · kept spread), so a crashed
//     configuration steers the model away instead of vanishing.
//
// The result is deterministic in the history contents. With no
// successful finite samples it returns empty slices (there is no
// baseline to impute against).
func (h *History) RobustXY() ([][]float64, []float64, RobustInfo) {
	var info RobustInfo

	okY := make([]float64, 0, len(h.Samples))
	for _, s := range h.Samples {
		if s.Failed {
			continue
		}
		if math.IsNaN(s.Y) || math.IsInf(s.Y, 0) {
			info.NonFinite++
			continue
		}
		okY = append(okY, s.Y)
	}
	if len(okY) == 0 {
		info.Imputed = 0
		return nil, nil, info
	}
	med, sigma := medianMAD(okY)

	// First pass: decide which successful samples survive the filter
	// and find the kept min/max for the penalty value.
	keep := func(y float64) bool {
		return sigma == 0 || math.Abs(y-med) <= madThreshold*sigma
	}
	minKept, maxKept := math.Inf(1), math.Inf(-1)
	for _, y := range okY {
		if keep(y) {
			if y < minKept {
				minKept = y
			}
			if y > maxKept {
				maxKept = y
			}
		}
	}
	spread := maxKept - minKept
	if spread <= 0 {
		spread = math.Max(math.Abs(maxKept)*0.1, 1)
	}
	penalty := maxKept + penaltyFactor*spread

	X := make([][]float64, 0, len(h.Samples))
	Y := make([]float64, 0, len(h.Samples))
	for _, s := range h.Samples {
		switch {
		case s.Failed:
			X = append(X, s.ParamU)
			Y = append(Y, penalty)
			info.Imputed++
		case math.IsNaN(s.Y) || math.IsInf(s.Y, 0):
			// counted above
		case keep(s.Y):
			X = append(X, s.ParamU)
			Y = append(Y, s.Y)
			info.OK++
		default:
			info.Outliers++
		}
	}
	return X, Y, info
}

// medianMAD returns the median and the MAD-based robust standard
// deviation (1.4826·MAD) of v.
func medianMAD(v []float64) (med, sigma float64) {
	cp := append([]float64(nil), v...)
	sort.Float64s(cp)
	med = quantileSorted(cp)
	dev := make([]float64, len(cp))
	for i, y := range cp {
		dev[i] = math.Abs(y - med)
	}
	sort.Float64s(dev)
	return med, 1.4826 * quantileSorted(dev)
}

func quantileSorted(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return 0.5 * (sorted[n/2-1] + sorted[n/2])
}

// RobustStats counts the degradation events of one tuning session: how
// often a surrogate fit failed and the proposer fell back to
// space-filling sampling, plus the cumulative robust-ingestion gauges
// of the most recent fit.
type RobustStats struct {
	// FitFailures counts surrogate fit errors survived by degrading.
	FitFailures int64 `json:"fit_failures,omitempty"`
	// SpaceFill counts iterations answered with space-filling sampling
	// because the model was unavailable (fit failure — not the normal
	// warm-up randoms).
	SpaceFill int64 `json:"space_fill,omitempty"`
	// LastOutliers/LastImputed describe the most recent robust
	// ingestion: samples MAD-excluded and failures penalty-imputed.
	LastOutliers int64 `json:"last_outliers,omitempty"`
	LastImputed  int64 `json:"last_imputed,omitempty"`
}
