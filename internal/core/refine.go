package core

import (
	"math"

	"charles/internal/cluster"
	"charles/internal/regress"
)

// refineMaxIters bounds the EM-style refinement loop; assignments almost
// always stabilize within a handful of iterations.
const refineMaxIters = 12

// seedAndRefine clusters the 1-D signal exactly and refines the clusters
// EM-style; with noRefine (the E12 ablation) it returns the raw
// clustering. This is the partition-discovery workhorse behind
// candidate().
func seedAndRefine(signal []float64, rows []int, fm *featMat, newVals []float64, k int, noRefine bool) ([]int, error) {
	km, err := cluster.KMeans1D(signal, k)
	if err != nil {
		return nil, err
	}
	if noRefine {
		return km.Labels, nil
	}
	return refineClusters(km.Labels, rows, fm, newVals, k), nil
}

// refineClusters improves an initial clustering of the changed rows by
// alternating (fit a linear model per cluster) with (reassign each row to
// the cluster whose model predicts its new value best). labels[i] is the
// cluster of rows[i]; feats and newVals are indexed by table row.
// The refined labels (same indexing as labels) are returned; the input
// slice is not modified.
func refineClusters(labels []int, rows []int, fm *featMat, newVals []float64, k int) []int {
	cur := append([]int(nil), labels...)
	if k <= 1 || len(rows) <= 1 {
		return cur
	}
	for iter := 0; iter < refineMaxIters; iter++ {
		models := fitClusterModels(cur, rows, fm, newVals, k)
		sizes := make([]int, k)
		for _, l := range cur {
			sizes[l]++
		}
		changed := false
		for i, r := range rows {
			// Tolerance for "fits equally well": rows on the intersection
			// of two transformation lines are ambiguous, and chasing
			// floating-point dust would make the outcome depend on row
			// order (the per-cluster fits sum their rows in order).
			eps := 1e-9 * (1 + math.Abs(newVals[r]))
			bestC, bestErr := -1, math.Inf(1)
			for c := 0; c < k; c++ {
				m := models[c]
				if m == nil {
					continue
				}
				err := math.Abs(newVals[r] - m.Predict(fm.row(r)))
				switch {
				case err < bestErr-eps:
					bestC, bestErr = c, err
				case err <= bestErr+eps && bestC >= 0:
					// Tie: prefer the larger cluster, so ambiguous rows
					// join the dominant policy instead of propping up
					// spurious singleton partitions.
					if sizes[c] > sizes[bestC] || (sizes[c] == sizes[bestC] && c < bestC) {
						bestC = c
						if err < bestErr {
							bestErr = err
						}
					}
				}
			}
			if bestC >= 0 && bestC != cur[i] {
				cur[i] = bestC
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return cur
}

// fitClusterModels fits one model per cluster, with the same fallback
// ladder the partition fitter uses; clusters that cannot support any fit
// get nil (rows keep their previous assignment relative to them).
func fitClusterModels(labels []int, rows []int, fm *featMat, newVals []float64, k int) []*regress.Model {
	models := make([]*regress.Model, k)
	sizes := make([]int, k)
	for _, l := range labels {
		sizes[l]++
	}
	for c := 0; c < k; c++ {
		if sizes[c] == 0 {
			continue
		}
		x := make([][]float64, 0, sizes[c])
		y := make([]float64, 0, sizes[c])
		for i, r := range rows {
			if labels[i] != c {
				continue
			}
			x = append(x, fm.row(r))
			y = append(y, newVals[r])
		}
		if len(y) == 0 {
			continue
		}
		m, err := regress.Fit(x, y, regress.DefaultOptions())
		if err != nil {
			m, err = regress.Fit(x, y, regress.Options{Intercept: false, Ridge: 1e-8})
		}
		if err != nil {
			// Constant model: predict the cluster's mean new value.
			mean := 0.0
			for _, v := range y {
				mean += v
			}
			mean /= float64(len(y))
			m = &regress.Model{Coef: make([]float64, len(x[0])), Intercept: mean}
			m.Refit(x, y)
		}
		models[c] = m
	}
	return models
}
