package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤ 100):
// the smallest value at least p% of the samples are less than or equal to.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[percentileRank(len(s), p)-1]
}

// percentileRank is the 1-based nearest rank of the p-th percentile of n
// samples.
func percentileRank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return min(max(r, 1), n)
}

// beyond reports how many of n samples lie above the p-th percentile's
// rank: the tail a percentile is estimated from.
func beyond(n int, p float64) int { return n - percentileRank(n, p) }

// ratio is num/den, 0 when den is 0 (a layer the workload never reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
