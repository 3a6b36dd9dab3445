package experiments

import (
	"fmt"
	"time"

	"charles/internal/baseline"
	"charles/internal/core"
	"charles/internal/diff"
	"charles/internal/eval"
	"charles/internal/gen"
	"charles/internal/model"
	"charles/internal/predicate"
	"charles/internal/score"
)

// recoveryMetrics runs the engine on a planted dataset and evaluates the top
// summary against the ground truth.
func recoveryMetrics(d *gen.PlantedData, opts core.Options) (top core.Ranked, rm *eval.RuleMetrics, cm *eval.CellMetrics, elapsed time.Duration, err error) {
	start := time.Now()
	ranked, err := core.Summarize(d.Src, d.Tgt, opts)
	elapsed = time.Since(start)
	if err != nil {
		return core.Ranked{}, nil, nil, elapsed, err
	}
	top = ranked[0]
	rm, err = eval.Rules(d.Truth, top.Summary, d.Src)
	if err != nil {
		return top, nil, nil, elapsed, err
	}
	a, err := diff.Align(d.Src, d.Tgt)
	if err != nil {
		return top, rm, nil, elapsed, err
	}
	_, newVals, err := a.Delta(d.Target)
	if err != nil {
		return top, rm, nil, elapsed, err
	}
	changed, err := a.ChangedMask(d.Target, core.ChangeTol)
	if err != nil {
		return top, rm, nil, elapsed, err
	}
	// Tolerance: 10% of the mean change magnitude (loose enough that rule
	// recovery under injected noise is judged on structure, not on
	// reproducing the noise itself).
	tol := cellTolerance(d, newVals, changed)
	cm, err = eval.Cells(top.Summary, d.Src, newVals, changed, tol)
	return top, rm, cm, elapsed, err
}

func cellTolerance(d *gen.PlantedData, newVals []float64, changed []bool) float64 {
	oldCol := d.Src.MustColumn(d.Target)
	var sum float64
	var n int
	for r, ch := range changed {
		if ch {
			dv := newVals[r] - oldCol.Float(r)
			if dv < 0 {
				dv = -dv
			}
			sum += dv
			n++
		}
	}
	if n == 0 {
		return 1e-6
	}
	return 0.10 * sum / float64(n)
}

// E6Montgomery reproduces the demonstration's real-world scenario on the
// Montgomery County salary simulation: the engine must recover the planted
// 4-rule county pay policy at dataset scale (~9k employees; quick mode 1k).
func E6Montgomery(cfg Config) (*Report, error) {
	r := newReport("E6", "Montgomery salary simulation (demo §3)")
	sizes := []int{1000, 9000}
	if cfg.Quick {
		sizes = []int{1000}
	}
	r.printf("%-8s %-10s %-9s %-9s %-9s %s\n", "rows", "time", "score", "ruleF1", "cellF1", "top summary size")
	for _, n := range sizes {
		d, err := gen.Montgomery(7, n)
		if err != nil {
			return nil, err
		}
		opts := core.DefaultOptions(d.Target)
		opts.CondAttrs = d.CondAttrs
		opts.TranAttrs = d.TranAttrs
		top, rm, cm, elapsed, err := recoveryMetrics(d, opts)
		if err != nil {
			return nil, err
		}
		r.printf("%-8d %-10s %-9.4f %-9.3f %-9.3f %d\n",
			n, elapsed.Round(time.Millisecond), top.Breakdown.Score, rm.RuleF1, cm.F1, top.Summary.Size())
		r.Values[fmt.Sprintf("rule_f1_n%d", n)] = rm.RuleF1
		r.Values[fmt.Sprintf("cell_f1_n%d", n)] = cm.F1
		r.Values[fmt.Sprintf("score_n%d", n)] = top.Breakdown.Score
		r.Values[fmt.Sprintf("ms_n%d", n)] = float64(elapsed.Milliseconds())
	}
	return r, nil
}

// E7SearchSpace reproduces the §2 discussion of search-space growth in the
// user parameters c and t: candidate (C, T, k) combinations and wall time.
func E7SearchSpace(cfg Config) (*Report, error) {
	r := newReport("E7", "search-space growth in c and t (§2)")
	n := 2000
	if cfg.Quick {
		n = 500
	}
	d, err := gen.Planted(gen.PlantedConfig{N: n, Seed: 3, Rules: 3, RuleDepth: 2, UnchangedFrac: 0.3, Distractors: 2})
	if err != nil {
		return nil, err
	}
	condPool := []string{"seg", "tier", "region", "noisecat0"}
	tranPool := []string{"pay", "noisenum0"}
	r.printf("%-4s %-4s %-12s %-10s %s\n", "c", "t", "candidates", "time", "top score")
	for _, c := range []int{1, 2, 3} {
		for _, t := range []int{1, 2} {
			opts := core.DefaultOptions(d.Target)
			opts.CondAttrs = condPool
			opts.TranAttrs = tranPool
			opts.C, opts.T = c, t
			start := time.Now()
			ranked, err := core.Summarize(d.Src, d.Tgt, opts)
			if err != nil {
				return nil, err
			}
			elapsed := time.Since(start)
			cands := subsetCount(len(condPool), c) * subsetCount(len(tranPool), t) * opts.KMax
			r.printf("%-4d %-4d %-12d %-10s %.4f\n", c, t, cands, elapsed.Round(time.Millisecond), ranked[0].Breakdown.Score)
			r.Values[fmt.Sprintf("cands_c%d_t%d", c, t)] = float64(cands)
			r.Values[fmt.Sprintf("ms_c%d_t%d", c, t)] = float64(elapsed.Milliseconds())
			r.Values[fmt.Sprintf("score_c%d_t%d", c, t)] = ranked[0].Breakdown.Score
		}
	}
	return r, nil
}

// E8Baselines scores ChARLES against the related-work baselines on the same
// Score(S): the exhaustive cell list (perfectly accurate, unreadable), the
// global single regression (the paper's R4), the empty no-change summary,
// and the Müller update distance (reported as a count).
func E8Baselines(cfg Config) (*Report, error) {
	r := newReport("E8", "baseline comparison (§1 related work)")
	n := 2000
	if cfg.Quick {
		n = 500
	}
	d, err := gen.Planted(gen.PlantedConfig{N: n, Seed: 5, Rules: 3, RuleDepth: 1, UnchangedFrac: 0.3})
	if err != nil {
		return nil, err
	}
	a, err := diff.Align(d.Src, d.Tgt)
	if err != nil {
		return nil, err
	}
	_, newVals, err := a.Delta(d.Target)
	if err != nil {
		return nil, err
	}
	changed, err := a.ChangedMask(d.Target, core.ChangeTol)
	if err != nil {
		return nil, err
	}

	opts := core.DefaultOptions(d.Target)
	opts.CondAttrs = d.CondAttrs
	opts.TranAttrs = d.TranAttrs
	ranked, err := core.SummarizeAligned(a, opts)
	if err != nil {
		return nil, err
	}
	charlesTop := ranked[0]

	global, err := baseline.GlobalRegression(a, d.Target, d.TranAttrs, core.ChangeTol)
	if err != nil {
		return nil, err
	}
	cells, err := baseline.CellList(a, d.Target, core.ChangeTol)
	if err != nil {
		return nil, err
	}
	nochange := baseline.NoChange(d.Target)
	ud, err := baseline.UpdateDistance(a, d.Target, core.ChangeTol)
	if err != nil {
		return nil, err
	}

	r.printf("%-22s %-8s %-10s %-10s %s\n", "method", "size", "score", "accuracy", "interp")
	type entry struct {
		name string
		sum  *model.Summary
		bd   *score.Breakdown
	}
	entries := []entry{
		{"ChARLES (top)", charlesTop.Summary, charlesTop.Breakdown},
		{"global regression (R4)", global, nil},
		{"cell list", cells, nil},
		{"no change", nochange, nil},
	}
	// The baselines are scored as the engine scores its candidates.
	ev, err := score.NewEvaluator(d.Src, newVals, changed, opts.Weights, predicate.NewCache(d.Src))
	if err != nil {
		return nil, err
	}
	for i, e := range entries {
		if e.bd == nil {
			bd, err := ev.Evaluate(e.sum)
			if err != nil {
				return nil, err
			}
			bd.Score = bd.Blend(opts.Alpha)
			e.bd = &bd
			entries[i] = e
		}
		r.printf("%-22s %-8d %-10.4f %-10.4f %.4f\n", e.name, e.sum.Size(), e.bd.Score, e.bd.Accuracy, e.bd.Interpretability)
	}
	r.printf("update distance (Müller et al.): %d cell updates\n", ud)

	r.Values["charles_score"] = entries[0].bd.Score
	r.Values["global_score"] = entries[1].bd.Score
	r.Values["celllist_score"] = entries[2].bd.Score
	r.Values["celllist_accuracy"] = entries[2].bd.Accuracy
	r.Values["nochange_score"] = entries[3].bd.Score
	r.Values["update_distance"] = float64(ud)
	return r, nil
}

// E9Noise measures recovery robustness as (a) Gaussian noise is added to
// the evolved values and (b) the unchanged fraction grows.
func E9Noise(cfg Config) (*Report, error) {
	r := newReport("E9", "noise and unchanged-fraction robustness")
	n := 2000
	if cfg.Quick {
		n = 600
	}
	r.printf("%-10s %-12s %-9s %-9s\n", "noise", "unchanged", "ruleF1", "cellF1")
	noises := []float64{0, 0.05, 0.1, 0.2}
	unchFracs := []float64{0.3}
	if !cfg.Quick {
		unchFracs = []float64{0, 0.3, 0.6}
	}
	for _, noise := range noises {
		for _, uf := range unchFracs {
			d, err := gen.Planted(gen.PlantedConfig{N: n, Seed: 9, Rules: 3, RuleDepth: 1, UnchangedFrac: uf, NoiseStd: noise})
			if err != nil {
				return nil, err
			}
			opts := core.DefaultOptions(d.Target)
			opts.CondAttrs = d.CondAttrs
			opts.TranAttrs = d.TranAttrs
			_, rm, cm, _, err := recoveryMetrics(d, opts)
			if err != nil {
				return nil, err
			}
			r.printf("%-10.2f %-12.2f %-9.3f %-9.3f\n", noise, uf, rm.RuleF1, cm.F1)
			r.Values[fmt.Sprintf("rule_f1_noise%03d_unch%02d", int(noise*100), int(uf*10))] = rm.RuleF1
		}
	}
	return r, nil
}

// E10Scalability measures end-to-end runtime as rows grow; per candidate
// (C, T, k) the pipeline is near-linear in n.
func E10Scalability(cfg Config) (*Report, error) {
	r := newReport("E10", "scalability in rows")
	sizes := []int{1000, 5000, 10000, 25000, 50000}
	if cfg.Quick {
		sizes = []int{500, 1000, 2000}
	}
	r.printf("%-8s %-12s %s\n", "rows", "time", "ms/row")
	var lastMS float64
	for _, n := range sizes {
		d, err := gen.Planted(gen.PlantedConfig{N: n, Seed: 13, Rules: 3, RuleDepth: 2, UnchangedFrac: 0.3})
		if err != nil {
			return nil, err
		}
		opts := core.DefaultOptions(d.Target)
		opts.CondAttrs = d.CondAttrs
		opts.TranAttrs = d.TranAttrs
		start := time.Now()
		if _, err := core.Summarize(d.Src, d.Tgt, opts); err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		ms := float64(elapsed.Milliseconds())
		r.printf("%-8d %-12s %.4f\n", n, elapsed.Round(time.Millisecond), ms/float64(n))
		r.Values[fmt.Sprintf("ms_n%d", n)] = ms
		lastMS = ms
	}
	r.Values["ms_last"] = lastMS
	return r, nil
}

// E11Billionaires runs the engine on the Forbes-billionaires simulation
// (the paper's "additional dataset [2]").
func E11Billionaires(cfg Config) (*Report, error) {
	r := newReport("E11", "billionaires simulation (demo §3, dataset [2])")
	n := 2500
	if cfg.Quick {
		n = 600
	}
	d, err := gen.Billionaires(11, n)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions(d.Target)
	opts.CondAttrs = d.CondAttrs
	opts.TranAttrs = d.TranAttrs
	top, rm, cm, elapsed, err := recoveryMetrics(d, opts)
	if err != nil {
		return nil, err
	}
	r.printf("rows %d, time %s\ntop summary (score %.4f):\n%s",
		n, elapsed.Round(time.Millisecond), top.Breakdown.Score, top.Summary)
	r.printf("rule F1 %.3f, cell F1 %.3f\n", rm.RuleF1, cm.F1)
	r.Values["rule_f1"] = rm.RuleF1
	r.Values["cell_f1"] = cm.F1
	r.Values["top_score"] = top.Breakdown.Score
	return r, nil
}

// subsetCount returns Σ_{i=1..k} C(n, i).
func subsetCount(n, k int) int {
	if k > n {
		k = n
	}
	total := 0
	for i := 1; i <= k; i++ {
		total += binom(n, i)
	}
	return total
}

func binom(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	res := 1
	for i := 0; i < k; i++ {
		res = res * (n - i) / (i + 1)
	}
	return res
}
