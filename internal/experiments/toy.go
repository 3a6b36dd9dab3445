package experiments

import (
	"fmt"

	"charles/internal/assist"
	"charles/internal/core"
	"charles/internal/diff"
	"charles/internal/eval"
	"charles/internal/gen"
	"charles/internal/lmtree"
	"charles/internal/viz"
)

// E1ToyRecovery reproduces Figure 1 + Figure 2 + Example 1: run the engine
// on the toy employee snapshots and check that the top summary is the
// planted R1–R3 policy, rendered as a linear model tree.
func E1ToyRecovery(cfg Config) (*Report, error) {
	r := newReport("E1", "toy policy recovery (Fig 1, Fig 2, Example 1)")
	src, tgt := gen.Toy()
	truth := gen.ToyTruth()

	ranked, err := core.Summarize(src, tgt, core.DefaultOptions("bonus"))
	if err != nil {
		return nil, err
	}
	top := ranked[0]
	r.printf("top summary (score %.3f, accuracy %.3f, interpretability %.3f):\n%s\n",
		top.Breakdown.Score, top.Breakdown.Accuracy, top.Breakdown.Interpretability, top.Summary)
	r.printf("linear model tree (paper Fig 2):\n%s\n", lmtree.FromSummary(top.Summary).Render())

	rm, err := eval.Rules(truth, top.Summary, src)
	if err != nil {
		return nil, err
	}
	a, err := diff.Align(src, tgt)
	if err != nil {
		return nil, err
	}
	_, newVals, err := a.Delta("bonus")
	if err != nil {
		return nil, err
	}
	changed, err := a.ChangedMask("bonus", core.ChangeTol)
	if err != nil {
		return nil, err
	}
	cm, err := eval.Cells(top.Summary, src, newVals, changed, 1.0)
	if err != nil {
		return nil, err
	}
	r.printf("rule recovery: mean partition Jaccard %.3f, rule F1 %.3f\n", rm.MeanJaccard, rm.RuleF1)
	r.printf("cell-level: precision %.3f, recall %.3f, F1 %.3f, MAE %.2f\n", cm.Precision, cm.Recall, cm.F1, cm.MAE)

	r.Values["top_score"] = top.Breakdown.Score
	r.Values["top_accuracy"] = top.Breakdown.Accuracy
	r.Values["mean_jaccard"] = rm.MeanJaccard
	r.Values["rule_f1"] = rm.RuleF1
	r.Values["cell_f1"] = cm.F1
	r.Values["summary_size"] = float64(top.Summary.Size())
	return r, nil
}

// E2RankedSummaries reproduces demo step 8: the ranked top-10 list with
// blended, accuracy, and interpretability scores; the paper reports the
// first summary at "a very high score of 89%".
func E2RankedSummaries(cfg Config) (*Report, error) {
	r := newReport("E2", "ranked summary list (demo step 8)")
	src, tgt := gen.Toy()
	ranked, err := core.Summarize(src, tgt, core.DefaultOptions("bonus"))
	if err != nil {
		return nil, err
	}
	for i, it := range ranked {
		r.Text += viz.SummaryCard(i+1, it.Summary, it.Breakdown)
	}
	r.Values["count"] = float64(len(ranked))
	r.Values["top_score"] = ranked[0].Breakdown.Score
	if len(ranked) > 1 {
		r.Values["second_score"] = ranked[1].Breakdown.Score
	}
	// Monotone ranking check.
	mono := 1.0
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Breakdown.Score > ranked[i-1].Breakdown.Score+1e-12 {
			mono = 0
		}
	}
	r.Values["monotone"] = mono
	return r, nil
}

// E3AttributeSelection reproduces demo steps 4–5: the setup assistant's
// ranked candidate lists. The demo selects {education, exp, gender} for
// conditions and {bonus, salary} for transformations; our correlation
// measure agrees on edu as the dominant condition signal and bonus/salary
// as the transformation attributes.
func E3AttributeSelection(cfg Config) (*Report, error) {
	r := newReport("E3", "attribute selection (demo steps 4-5)")
	src, tgt := gen.Toy()
	a, err := diff.Align(src, tgt)
	if err != nil {
		return nil, err
	}
	cond, err := assist.SuggestCondition(a, "bonus", core.ChangeTol)
	if err != nil {
		return nil, err
	}
	tran, err := assist.SuggestTransformation(a, "bonus", core.ChangeTol)
	if err != nil {
		return nil, err
	}
	r.printf("condition candidates (assoc with change):\n")
	for i, s := range cond {
		r.printf("  %d. %-8s %.3f\n", i+1, s.Attr, s.Score)
		r.Values["cond_"+s.Attr] = s.Score
	}
	r.printf("transformation candidates (corr with new value):\n")
	for i, s := range tran {
		r.printf("  %d. %-8s %.3f\n", i+1, s.Attr, s.Score)
		r.Values["tran_"+s.Attr] = s.Score
	}
	if len(cond) > 0 && cond[0].Attr == "edu" {
		r.Values["cond_top_is_edu"] = 1
	}
	shortTran := assist.Shortlist(tran, assist.DefaultThreshold, 2, 2)
	if len(shortTran) == 2 && contains(shortTran, "bonus") && contains(shortTran, "salary") {
		r.Values["tran_shortlist_ok"] = 1
	}
	return r, nil
}

// E4Treemap reproduces demo step 10: the partition visualization of the top
// summary — coverage-proportional rectangles with the no-change partition
// hatched. On the toy data the paper highlights a 33.3% partition.
func E4Treemap(cfg Config) (*Report, error) {
	r := newReport("E4", "partition treemap (demo step 10)")
	src, tgt := gen.Toy()
	ranked, err := core.Summarize(src, tgt, core.DefaultOptions("bonus"))
	if err != nil {
		return nil, err
	}
	top := ranked[0].Summary
	r.Text = viz.Treemap(top, 45)
	var covered float64
	var maxCov float64
	for i, ct := range top.CTs {
		r.Values[fmt.Sprintf("coverage_%d", i+1)] = ct.Coverage
		covered += ct.Coverage
		if ct.Coverage > maxCov {
			maxCov = ct.Coverage
		}
	}
	r.Values["covered"] = covered
	r.Values["nochange"] = 1 - covered
	r.Values["max_coverage"] = maxCov
	return r, nil
}

// E5AlphaSweep reproduces the §2 accuracy–interpretability tradeoff: as α
// falls, the winning summary shifts from the exact multi-CT policy to a
// coarser (eventually single- or zero-CT) summary.
func E5AlphaSweep(cfg Config) (*Report, error) {
	r := newReport("E5", "accuracy-interpretability tradeoff (alpha sweep)")
	src, tgt := gen.Toy()
	r.printf("%-6s %-10s %-10s %-10s %s\n", "alpha", "score", "accuracy", "interp", "size")
	var sizeLo, sizeHi float64
	for i := 0; i <= 10; i++ {
		alpha := float64(i) / 10
		opts := core.DefaultOptions("bonus")
		opts.Alpha = alpha
		ranked, err := core.Summarize(src, tgt, opts)
		if err != nil {
			return nil, err
		}
		top := ranked[0]
		size := float64(top.Summary.Size())
		r.printf("%-6.1f %-10.4f %-10.4f %-10.4f %d\n",
			alpha, top.Breakdown.Score, top.Breakdown.Accuracy, top.Breakdown.Interpretability, top.Summary.Size())
		r.Values[fmt.Sprintf("size_a%02d", i)] = size
		r.Values[fmt.Sprintf("acc_a%02d", i)] = top.Breakdown.Accuracy
		if i == 1 {
			sizeLo = size
		}
		if i == 9 {
			sizeHi = size
		}
	}
	r.Values["size_low_alpha"] = sizeLo
	r.Values["size_high_alpha"] = sizeHi
	return r, nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
