// Package stats provides the descriptive and correlation statistics behind
// the ChARLES setup assistant: Pearson correlation for numeric attributes
// and the correlation ratio (η) for categorical→numeric association. NaN
// inputs are skipped pairwise.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of the finite values in xs (NaN if none).
func Mean(xs []float64) float64 {
	s, n := 0.0, 0
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		s += x
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return s / float64(n)
}

// Variance returns the population variance of the finite values in xs.
func Variance(xs []float64) float64 {
	m := Mean(xs)
	if math.IsNaN(m) {
		return math.NaN()
	}
	s, n := 0.0, 0
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		d := x - m
		s += d * d
		n++
	}
	return s / float64(n)
}

// Std returns the population standard deviation.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Pearson returns the Pearson correlation coefficient of the pairwise-finite
// entries of x and y (0 when either side is constant or fewer than 2 pairs).
func Pearson(x, y []float64) float64 {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	var sx, sy float64
	cnt := 0
	for i := 0; i < n; i++ {
		if math.IsNaN(x[i]) || math.IsNaN(y[i]) {
			continue
		}
		sx += x[i]
		sy += y[i]
		cnt++
	}
	if cnt < 2 {
		return 0
	}
	mx, my := sx/float64(cnt), sy/float64(cnt)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		if math.IsNaN(x[i]) || math.IsNaN(y[i]) {
			continue
		}
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// CorrelationRatio computes η, the correlation ratio between a categorical
// variable (category label per row) and a numeric one: the square root of
// the between-group variance share. η ∈ [0,1]; 1 means the category fully
// determines the numeric value. Rows with NaN values are skipped.
func CorrelationRatio(categories []string, values []float64) float64 {
	n := len(categories)
	if len(values) < n {
		n = len(values)
	}
	sums := map[string]float64{}
	counts := map[string]int{}
	var total float64
	cnt := 0
	for i := 0; i < n; i++ {
		if math.IsNaN(values[i]) {
			continue
		}
		sums[categories[i]] += values[i]
		counts[categories[i]]++
		total += values[i]
		cnt++
	}
	if cnt < 2 || len(counts) < 2 {
		return 0
	}
	grand := total / float64(cnt)
	var between, within float64
	means := map[string]float64{}
	// Iterate categories in sorted order: floating-point accumulation must
	// not depend on map iteration order, or equal inputs could produce
	// last-ulp-different results across runs.
	cats := make([]string, 0, len(sums))
	for c := range sums {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	for _, c := range cats {
		means[c] = sums[c] / float64(counts[c])
		d := means[c] - grand
		between += float64(counts[c]) * d * d
	}
	for i := 0; i < n; i++ {
		if math.IsNaN(values[i]) {
			continue
		}
		d := values[i] - means[categories[i]]
		within += d * d
	}
	tot := between + within
	if tot == 0 {
		return 0
	}
	return math.Sqrt(between / tot)
}
