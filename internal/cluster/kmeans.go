// Package cluster implements exact k-means clustering of scalar values.
// ChARLES clusters the one-dimensional residuals of a global regression to
// discover candidate data partitions. In one dimension an optimal k-means
// clustering splits the sorted values into contiguous runs, so a dynamic
// program over the sorted distinct values finds it exactly (Wang & Song
// 2011, "Ckmeans.1d.dp"; Grønlund et al. 2017, arXiv:1701.07204). The
// answer depends only on the values: there is no seed, no restart, and no
// dependence on their order.
package cluster

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Result holds the outcome of a clustering.
type Result struct {
	K       int
	Labels  []int     // cluster id per value, in input order
	Centers []float64 // cluster means
	Sizes   []int     // values per cluster
	Inertia float64   // Σ squared distance to the assigned center
}

// KMeans1D clusters values into K = min(k, distinct values) clusters with
// the least inertia of any clustering. Equal values always share a
// cluster. Cluster 0 is the largest; clusters of equal size are numbered
// in ascending value order, so permuting values permutes Labels the same
// way. A NaN or ±Inf value is an error.
//
// The dynamic program runs over the m distinct values, each weighted by
// its multiplicity. Layer c holds the least cost of covering every prefix
// of them with c+1 clusters; the best start of the last cluster is
// non-decreasing in the prefix length, so a divide-and-conquer argmin
// fills a layer in O(m log m).
func KMeans1D(values []float64, k int) (*Result, error) {
	n := len(values)
	if k <= 0 {
		return nil, fmt.Errorf("cluster: k must be positive, got %d", k)
	}
	if n == 0 {
		return nil, fmt.Errorf("cluster: no points")
	}
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("cluster: value %d is %v", i, v)
		}
	}

	// Everything below reads the values sorted and scaled by 2^−e into
	// (−1, 1): no bit of the arithmetic depends on their input order, the
	// scaling is exact, and no square can overflow.
	sorted := slices.Clone(values)
	slices.Sort(sorted)
	_, e := math.Frexp(max(-sorted[0], sorted[n-1]))
	mean := 0.0
	var xs, ws []float64 // distinct scaled values ascending, and their multiplicities
	for _, v := range sorted {
		x := math.Ldexp(v, -e)
		mean += x
		if m := len(xs); m > 0 && xs[m-1] == x {
			ws[m-1]++
			continue
		}
		xs = append(xs, x)
		ws = append(ws, 1)
	}
	m := len(xs)
	mean /= float64(n)

	// Prefix sums of w, w·(x−mean) and w·(x−mean)² over the distinct
	// values; shifting by the mean keeps s2 from cancelling when the values
	// sit far from zero.
	s0 := make([]float64, m+1)
	s1 := make([]float64, m+1)
	s2 := make([]float64, m+1)
	for j, x := range xs {
		d := x - mean
		s0[j+1] = s0[j] + ws[j]
		s1[j+1] = s1[j] + ws[j]*d
		s2[j+1] = s2[j] + ws[j]*d*d
	}
	// cost is the sum of squares of distinct values [i, j) about their mean.
	cost := func(i, j int) float64 {
		s := s1[j] - s1[i]
		return max(0, s2[j]-s2[i]-s*(s/(s0[j]-s0[i])))
	}

	K := min(k, m)
	// cut[c*(m+1)+j] is the first distinct value of cluster c in the best
	// split of the first j distinct values into c+1 clusters (0 for c = 0).
	cut := make([]int, K*(m+1))
	prev := make([]float64, m+1) // layer c−1: least cost of each prefix
	cur := make([]float64, m+1)
	for j := 1; j <= m; j++ {
		prev[j] = cost(0, j)
	}
	for c := 1; c < K; c++ {
		row := cut[c*(m+1) : (c+1)*(m+1)]
		// solve fills prefixes lo..hi, whose last clusters start within
		// optLo..optHi; optLo < lo keeps the first candidate valid, and
		// seeding the argmin with it means it is never unset.
		var solve func(lo, hi, optLo, optHi int)
		solve = func(lo, hi, optLo, optHi int) {
			if lo > hi {
				return
			}
			j := (lo + hi) / 2
			best, bestCost := optLo, prev[optLo]+cost(optLo, j)
			for i := optLo + 1; i <= min(optHi, j-1); i++ {
				if v := prev[i] + cost(i, j); v < bestCost {
					best, bestCost = i, v
				}
			}
			cur[j], row[j] = bestCost, best
			solve(lo, j-1, optLo, best)
			solve(j+1, hi, best, optHi)
		}
		solve(c+1, m, c, m-1)
		prev, cur = cur, prev
	}

	// Walk the cuts back from the full prefix: cluster c covers distinct
	// values [starts[c], ends[c]).
	starts, ends := make([]int, K), make([]int, K)
	for c, j := K-1, m; c >= 0; c-- {
		ends[c] = j
		j = cut[c*(m+1)+j]
		starts[c] = j
	}
	res := &Result{K: K, Labels: make([]int, n), Centers: make([]float64, K), Sizes: make([]int, K)}
	upper := make([]float64, K) // largest scaled value of each cluster
	inertia := 0.0
	for c := range ends {
		center := mean + (s1[ends[c]]-s1[starts[c]])/(s0[ends[c]]-s0[starts[c]])
		for j := starts[c]; j < ends[c]; j++ {
			d := xs[j] - center
			inertia += ws[j] * d * d
		}
		res.Centers[c] = math.Ldexp(center, e)
		res.Sizes[c] = int(s0[ends[c]] - s0[starts[c]])
		upper[c] = xs[ends[c]-1]
	}
	res.Inertia = math.Ldexp(inertia, 2*e)
	for i, v := range values {
		res.Labels[i] = sort.SearchFloat64s(upper, math.Ldexp(v, -e))
	}
	relabelBySize(res)
	return res, nil
}

// relabelBySize renumbers clusters so that cluster 0 is the largest; ties
// keep ascending value order. Labels then depend only on the values.
func relabelBySize(r *Result) {
	order := make([]int, r.K)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return r.Sizes[order[a]] > r.Sizes[order[b]] })
	remap := make([]int, r.K)
	centers, sizes := make([]float64, r.K), make([]int, r.K)
	for newID, oldID := range order {
		remap[oldID] = newID
		centers[newID], sizes[newID] = r.Centers[oldID], r.Sizes[oldID]
	}
	for i, l := range r.Labels {
		r.Labels[i] = remap[l]
	}
	r.Centers, r.Sizes = centers, sizes
}
