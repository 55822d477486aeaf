package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of the
// sample: the smallest value with at least q·n samples at or below it.
// It sorts a copy; an empty sample yields 0.
func percentile(sample []float64, q float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(sample []float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return 0.5 * (s[n/2-1] + s[n/2])
}

func mean(sample []float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range sample {
		t += v
	}
	return t / float64(len(sample))
}

// beyond reports how many samples lie strictly above the q-quantile's
// rank — the "at least ten samples beyond it" rule for a reported tail.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(q*float64(n)))
}

// ratio is a/b with 0 for an empty denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianOf times fn reps times and returns the median duration in
// seconds. fn runs once untimed first so lazily built state (pools,
// page faults) is not charged to the first sample.
func medianOf(reps int, fn func()) float64 {
	fn()
	d := make([]float64, reps)
	for i := range d {
		t0 := time.Now()
		fn()
		d[i] = time.Since(t0).Seconds()
	}
	return median(d)
}

// interval is one [start, end) span of time in nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of [lo, hi) the intervals cover, counting
// overlaps once.
func covered(lo, hi int64, ivs []interval) int64 {
	clip := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start < lo {
			iv.start = lo
		}
		if iv.end > hi {
			iv.end = hi
		}
		if iv.end > iv.start {
			clip = append(clip, iv)
		}
	}
	sort.Slice(clip, func(a, b int) bool { return clip[a].start < clip[b].start })
	var total, curEnd int64
	curEnd = lo
	for _, iv := range clip {
		if iv.start > curEnd {
			curEnd = iv.start
		}
		if iv.end > curEnd {
			total += iv.end - curEnd
			curEnd = iv.end
		}
	}
	return total
}

// selfTimes returns, for every span, its duration minus the part of
// that interval its direct children cover (children that overlap each
// other, as concurrent predictor calls do, are counted once).
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.StartNs, s.EndNs})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.Span] = (s.EndNs - s.StartNs) - covered(s.StartNs, s.EndNs, children[s.Span])
	}
	return out
}
