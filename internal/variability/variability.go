// Package variability implements performance-variability detection and
// mitigation — the future-work item named in the paper's conclusion
// ("Detecting/diagnosing performance variability of performance samples
// (caused by system noise) is also our future work"). It provides
//
//   - an analyzer over repeated measurements of identical
//     configurations (coefficient-of-variation statistics, flagging of
//     unstable configurations), and
//   - a RobustEvaluator wrapper that repeats measurements and
//     aggregates them, adaptively re-measuring configurations whose
//     spread exceeds a threshold.
package variability

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"gptunecrowd/internal/core"
	"gptunecrowd/internal/stat"
)

// Measurement is one observation of one configuration.
type Measurement struct {
	Key   string // canonical configuration key (see KeyFor)
	Value float64
}

// KeyFor renders a configuration as a canonical string key.
func KeyFor(cfg map[string]interface{}) string {
	keys := make([]string, 0, len(cfg))
	for k := range cfg {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%v;", k, cfg[k])
	}
	return b.String()
}

// ConfigStats summarizes the repeated measurements of one configuration.
type ConfigStats struct {
	Key      string
	N        int
	Mean     float64
	Std      float64
	CV       float64 // Std/Mean (0 when Mean == 0)
	Min, Max float64
}

// Report is the output of Analyze.
type Report struct {
	// PerConfig has one entry per configuration with >= 2 measurements,
	// ordered by decreasing CV.
	PerConfig []ConfigStats
	// Flagged are the configurations whose CV exceeds the threshold.
	Flagged []ConfigStats
	// MeanCV is the average CV over PerConfig (0 when empty): a global
	// estimate of the machine's noise level.
	MeanCV float64
	// Singletons counts configurations measured only once (no
	// variability information).
	Singletons int
}

// Analyze groups measurements by configuration and computes variability
// statistics. cvThreshold flags configurations whose coefficient of
// variation exceeds it (a typical value is 0.05 for dedicated nodes).
func Analyze(ms []Measurement, cvThreshold float64) *Report {
	groups := map[string][]float64{}
	for _, m := range ms {
		groups[m.Key] = append(groups[m.Key], m.Value)
	}
	rep := &Report{}
	var cvSum float64
	for key, vals := range groups {
		if len(vals) < 2 {
			rep.Singletons++
			continue
		}
		cs := ConfigStats{
			Key:  key,
			N:    len(vals),
			Mean: stat.Mean(vals),
			Std:  math.Sqrt(stat.SampleVariance(vals)),
			Min:  stat.Min(vals),
			Max:  stat.Max(vals),
		}
		if cs.Mean != 0 {
			cs.CV = cs.Std / math.Abs(cs.Mean)
		}
		rep.PerConfig = append(rep.PerConfig, cs)
		cvSum += cs.CV
	}
	sort.Slice(rep.PerConfig, func(a, b int) bool { return rep.PerConfig[a].CV > rep.PerConfig[b].CV })
	if len(rep.PerConfig) > 0 {
		rep.MeanCV = cvSum / float64(len(rep.PerConfig))
	}
	for _, cs := range rep.PerConfig {
		if cs.CV > cvThreshold {
			rep.Flagged = append(rep.Flagged, cs)
		}
	}
	return rep
}

// FromHistory extracts measurements from a tuning history (successful
// samples only).
func FromHistory(h *core.History) []Measurement {
	out := make([]Measurement, 0, len(h.Samples))
	for _, s := range h.Samples {
		if s.Failed {
			continue
		}
		out = append(out, Measurement{Key: KeyFor(s.Params), Value: s.Y})
	}
	return out
}

// Aggregator reduces repeated measurements to one objective value.
type Aggregator func([]float64) float64

// Median aggregation: robust to single outliers (the usual choice for
// noisy machines).
func Median(vals []float64) float64 { return stat.Quantile(vals, 0.5) }

// Mean aggregation.
func Mean(vals []float64) float64 { return stat.Mean(vals) }

// RobustEvaluator wraps an Evaluator with repeat-and-aggregate
// measurement. Each Evaluate runs the inner evaluator Repeats times
// (and, when the observed CV exceeds CVLimit, up to MaxExtra more
// times), then aggregates with Agg. Any failed inner run fails the
// whole evaluation, mirroring how a batch job script behaves.
type RobustEvaluator struct {
	Inner    core.Evaluator
	Repeats  int        // base measurements per evaluation (default 3)
	Agg      Aggregator // default Median
	CVLimit  float64    // re-measure trigger (default 0.05)
	MaxExtra int        // extra measurements cap (default 2)

	// TotalRuns counts inner evaluations, for cost accounting.
	TotalRuns int
}

// Evaluate implements core.Evaluator.
func (r *RobustEvaluator) Evaluate(task, params map[string]interface{}) (float64, error) {
	repeats := r.Repeats
	if repeats <= 0 {
		repeats = 3
	}
	agg := r.Agg
	if agg == nil {
		agg = Median
	}
	cvLimit := r.CVLimit
	if cvLimit <= 0 {
		cvLimit = 0.05
	}
	maxExtra := r.MaxExtra
	if maxExtra < 0 {
		maxExtra = 0
	} else if maxExtra == 0 {
		maxExtra = 2
	}
	vals := make([]float64, 0, repeats+maxExtra)
	for i := 0; i < repeats; i++ {
		y, err := r.Inner.Evaluate(task, params)
		r.TotalRuns++
		if err != nil {
			return 0, err
		}
		vals = append(vals, y)
	}
	for extra := 0; extra < maxExtra; extra++ {
		mean := stat.Mean(vals)
		if mean == 0 {
			break
		}
		cv := math.Sqrt(stat.SampleVariance(vals)) / math.Abs(mean)
		if cv <= cvLimit {
			break
		}
		y, err := r.Inner.Evaluate(task, params)
		r.TotalRuns++
		if err != nil {
			return 0, err
		}
		vals = append(vals, y)
	}
	return agg(vals), nil
}
