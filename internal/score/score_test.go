package score

import (
	"math"
	"testing"

	"charles/internal/model"
	"charles/internal/predicate"
	"charles/internal/table"
)

// fixture: 4 rows; first three change (+10% of 1000-ish), last unchanged.
func fixture(t *testing.T) (*table.Table, []float64, []bool) {
	t.Helper()
	tbl := table.MustNew(table.Schema{
		{Name: "grp", Type: table.String},
		{Name: "pay", Type: table.Float},
	})
	tbl.MustAppendRow(table.S("a"), table.F(1000))
	tbl.MustAppendRow(table.S("a"), table.F(2000))
	tbl.MustAppendRow(table.S("a"), table.F(3000))
	tbl.MustAppendRow(table.S("b"), table.F(4000))
	actual := []float64{1100, 2200, 3300, 4000}
	changed := []bool{true, true, true, false}
	return tbl, actual, changed
}

func perfectSummary() *model.Summary {
	return &model.Summary{
		Target: "pay",
		CTs: []model.CT{{
			Cond: predicate.Predicate{Atoms: []predicate.Atom{predicate.StrAtom("grp", predicate.Eq, "a")}},
			Tran: model.Transformation{Target: "pay", Inputs: []string{"pay"}, Coef: []float64{1.1}},
		}},
	}
}

func TestPerfectSummaryScoresAccuracyOne(t *testing.T) {
	tbl, actual, changed := fixture(t)
	bd, err := Evaluate(perfectSummary(), tbl, actual, changed, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if bd.Accuracy < 1-1e-9 {
		t.Errorf("accuracy = %v, want ≈ 1", bd.Accuracy)
	}
	if bd.MAE > 1e-6 {
		t.Errorf("MAE = %v", bd.MAE)
	}
	if bd.Interpretability <= 0.9 {
		t.Errorf("single simple CT should be highly interpretable: %v", bd.Interpretability)
	}
	if bd.Blend(0.5) < 0.95 {
		t.Errorf("score = %v", bd.Blend(0.5))
	}
}

func TestEmptySummaryAccuracyLow(t *testing.T) {
	tbl, actual, changed := fixture(t)
	bd, err := Evaluate(&model.Summary{Target: "pay"}, tbl, actual, changed, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	// The identity summary's MAE equals the mean change; with sharpness κ
	// its accuracy is 1/(1+κ).
	want := 1.0 / (1 + AccuracySharpness)
	if math.Abs(bd.Accuracy-want) > 1e-9 {
		t.Errorf("identity accuracy = %v, want %v", bd.Accuracy, want)
	}
	// It also covers none of the change, so interpretability collapses.
	if bd.Coverage != 0 {
		t.Errorf("coverage = %v", bd.Coverage)
	}
	if bd.Interpretability > 0.01 {
		t.Errorf("interpretability = %v, want ≈ 0", bd.Interpretability)
	}
}

func TestAlphaBlending(t *testing.T) {
	tbl, actual, changed := fixture(t)
	bd, err := Evaluate(perfectSummary(), tbl, actual, changed, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if bd.Score != 0 {
		t.Errorf("Evaluate set Score %v; only Blend computes it", bd.Score)
	}
	if bd.Blend(0) != bd.Interpretability || bd.Blend(1) != bd.Accuracy {
		t.Errorf("Blend(0) = %v, Blend(1) = %v; want interpretability %v and accuracy %v",
			bd.Blend(0), bd.Blend(1), bd.Interpretability, bd.Accuracy)
	}
	var prev float64
	for i, alpha := range []float64{0, 0.25, 0.5, 0.75, 1} {
		got := bd.Blend(alpha)
		want := alpha*bd.Accuracy + (1-alpha)*bd.Interpretability
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("alpha=%v: Blend %v != %v", alpha, got, want)
		}
		// For this summary accuracy > interpretability, so score rises with α.
		if i > 0 && got < prev-1e-9 {
			t.Errorf("score not monotone in alpha")
		}
		prev = got
	}
}

// TestEvaluateValidation holds both scorers to the same argument checks.
func TestEvaluateValidation(t *testing.T) {
	tbl, actual, changed := fixture(t)
	if _, err := Evaluate(perfectSummary(), tbl, actual[:2], changed, DefaultWeights()); err == nil {
		t.Error("Evaluate: length mismatch accepted")
	}
	if _, err := NewEvaluator(tbl, actual[:2], changed, DefaultWeights(), predicate.NewCache(tbl)); err == nil {
		t.Error("NewEvaluator: length mismatch accepted")
	}
	ev, err := NewEvaluator(tbl, actual, changed, DefaultWeights(), predicate.NewCache(tbl))
	if err != nil {
		t.Fatal(err)
	}
	// An empty target is checked too: the evaluator starts bound to no
	// target, which must not read as bound to "".
	for _, target := range []string{"ghost", ""} {
		bad := &model.Summary{Target: target}
		if _, err := Evaluate(bad, tbl, actual, changed, DefaultWeights()); err == nil {
			t.Errorf("Evaluate: unknown target %q accepted", target)
		}
		if _, err := ev.Evaluate(bad); err == nil {
			t.Errorf("Evaluator: unknown target %q accepted", target)
		}
	}
}

func TestSizePenaltyMonotone(t *testing.T) {
	tbl, actual, changed := fixture(t)
	one := perfectSummary()
	// Same semantics split into three CTs (one per row value) — more CTs,
	// lower size sub-score.
	three := &model.Summary{Target: "pay"}
	for _, v := range []float64{1000, 2000, 3000} {
		three.CTs = append(three.CTs, model.CT{
			Cond: predicate.Predicate{Atoms: []predicate.Atom{predicate.NumAtom("pay", predicate.Ge, v), predicate.NumAtom("pay", predicate.Lt, v+1)}},
			Tran: model.Transformation{Target: "pay", Inputs: []string{"pay"}, Coef: []float64{1.1}},
		})
	}
	bd1, err := Evaluate(one, tbl, actual, changed, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	bd3, err := Evaluate(three, tbl, actual, changed, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if bd3.Accuracy < 1-1e-9 {
		t.Fatalf("three-CT accuracy = %v", bd3.Accuracy)
	}
	if bd3.Size >= bd1.Size {
		t.Errorf("size sub-score should drop: %v vs %v", bd3.Size, bd1.Size)
	}
	if bd3.Interpretability >= bd1.Interpretability {
		t.Errorf("interpretability should drop with size: %v vs %v", bd3.Interpretability, bd1.Interpretability)
	}
}

func TestCondAndTranSimplicity(t *testing.T) {
	tbl, actual, changed := fixture(t)
	complexCond := &model.Summary{
		Target: "pay",
		CTs: []model.CT{{
			Cond: predicate.Predicate{Atoms: []predicate.Atom{
				predicate.StrAtom("grp", predicate.Eq, "a"),
				predicate.NumAtom("pay", predicate.Ge, 0),
				predicate.NumAtom("pay", predicate.Lt, 1e9),
			}},
			Tran: model.Transformation{Target: "pay", Inputs: []string{"pay"}, Coef: []float64{1.1}},
		}},
	}
	simple, err := Evaluate(perfectSummary(), tbl, actual, changed, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	complexBd, err := Evaluate(complexCond, tbl, actual, changed, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if complexBd.CondSimplicity >= simple.CondSimplicity {
		t.Errorf("3-atom condition should score lower: %v vs %v", complexBd.CondSimplicity, simple.CondSimplicity)
	}
}

func TestNormalityPrefersRoundConstants(t *testing.T) {
	tbl, actual, changed := fixture(t)
	round := perfectSummary() // 1.1 is round
	ugly := &model.Summary{
		Target: "pay",
		CTs: []model.CT{{
			Cond: predicate.Predicate{Atoms: []predicate.Atom{predicate.StrAtom("grp", predicate.Eq, "a")}},
			Tran: model.Transformation{Target: "pay", Inputs: []string{"pay"}, Coef: []float64{1.09973}, Intercept: 0.41},
		}},
	}
	rb, err := Evaluate(round, tbl, actual, changed, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	ub, err := Evaluate(ugly, tbl, actual, changed, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if ub.Normality >= rb.Normality {
		t.Errorf("ugly constants should score lower normality: %v vs %v", ub.Normality, rb.Normality)
	}
}

func TestCoverageComponent(t *testing.T) {
	tbl, actual, changed := fixture(t)
	// Covers only the first changed row (pay < 1500).
	partial := &model.Summary{
		Target: "pay",
		CTs: []model.CT{{
			Cond: predicate.Predicate{Atoms: []predicate.Atom{predicate.NumAtom("pay", predicate.Lt, 1500)}},
			Tran: model.Transformation{Target: "pay", Inputs: []string{"pay"}, Coef: []float64{1.1}},
		}},
	}
	bd, err := Evaluate(partial, tbl, actual, changed, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bd.Coverage-1.0/3) > 1e-12 {
		t.Errorf("coverage = %v, want 1/3", bd.Coverage)
	}
}

func TestHarmonicMeanWeakestLink(t *testing.T) {
	// One near-zero component must collapse the aggregate even when the
	// others are perfect.
	h := harmonicMean([]float64{1, 1, 1, 1, 0.001}, []float64{1, 1, 1, 1, 1})
	if h > 0.01 {
		t.Errorf("weakest link ignored: %v", h)
	}
	// All equal → mean equals the value.
	if got := harmonicMean([]float64{0.5, 0.5}, []float64{1, 1}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("uniform harmonic = %v", got)
	}
	// Zero weights drop components.
	if got := harmonicMean([]float64{0.001, 1}, []float64{0, 1}); got != 1 {
		t.Errorf("weighted drop = %v", got)
	}
	if harmonicMean([]float64{1}, []float64{0}) != 0 {
		t.Error("no active weights should give 0")
	}
}

func TestNoChangedRowsScale(t *testing.T) {
	tbl, _, _ := fixture(t)
	actual := []float64{1000, 2000, 3000, 4000} // nothing changed
	changed := []bool{false, false, false, false}
	bd, err := Evaluate(&model.Summary{Target: "pay"}, tbl, actual, changed, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if bd.Accuracy != 1 {
		t.Errorf("no-change vs empty summary accuracy = %v, want 1", bd.Accuracy)
	}
	if bd.Coverage != 1 {
		t.Errorf("coverage with no changes = %v, want vacuous 1", bd.Coverage)
	}
}

func TestConstantRoundnessRateView(t *testing.T) {
	// 1.05 read as "5%" is fully round; 1.0493 is not.
	if ConstantRoundness(1.05) != 1 {
		t.Errorf("ConstantRoundness(1.05) = %v", ConstantRoundness(1.05))
	}
	if ConstantRoundness(1.0493) >= ConstantRoundness(1.05) {
		t.Error("1.0493 should be less round than 1.05")
	}
	// Outside the rate window the direct view is used.
	if ConstantRoundness(1000) != 1 {
		t.Errorf("ConstantRoundness(1000) = %v", ConstantRoundness(1000))
	}
}
