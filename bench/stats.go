package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the p-th percentile (0 < p ≤ 100) of xs by the
// nearest-rank rule; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// percentileLadder is the fixed set of percentiles the bench reports from.
var percentileLadder = []float64{50, 90, 95, 99, 99.9}

// highestPercentile is the reporting rule of the choosing-metrics guide:
// the highest ladder percentile that still has at least ten samples beyond
// it. With fewer than twenty samples only the median qualifies.
func highestPercentile(n int) float64 {
	best := percentileLadder[0]
	for _, p := range percentileLadder {
		// Integer arithmetic on tenths of a percent keeps 99.9 exact.
		beyond := n * (1000 - int(math.Round(p*10))) / 1000
		if beyond >= 10 {
			best = p
		}
	}
	return best
}

// tailPercentile is percentile(xs, want) capped at what the sample count
// supports under highestPercentile.
func tailPercentile(xs []float64, want float64) float64 {
	return percentile(xs, math.Min(want, highestPercentile(len(xs))))
}

// maxOverMean is the imbalance figure max(xs)/mean(xs); 1 means perfectly
// even, 0 for an empty or all-zero slice.
func maxOverMean(xs []float64) float64 {
	var sum, max float64
	for _, x := range xs {
		sum += x
		if x > max {
			max = x
		}
	}
	if sum == 0 {
		return 0
	}
	return max / (sum / float64(len(xs)))
}
