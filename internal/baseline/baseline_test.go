package baseline

import (
	"math"
	"testing"

	"charles/internal/diff"
	"charles/internal/gen"
	"charles/internal/score"
	"charles/internal/table"
)

// uniformPair: every row evolves under the same rule pay' = 1.1·pay + 100.
func uniformPair(t *testing.T) *diff.Aligned {
	t.Helper()
	schema := table.Schema{{Name: "id", Type: table.Int}, {Name: "pay", Type: table.Float}}
	src := table.MustNew(schema)
	tgt := table.MustNew(schema)
	for i := 1; i <= 20; i++ {
		pay := float64(i * 1000)
		src.MustAppendRow(table.I(int64(i)), table.F(pay))
		tgt.MustAppendRow(table.I(int64(i)), table.F(1.1*pay+100))
	}
	if err := src.SetKey("id"); err != nil {
		t.Fatal(err)
	}
	a, err := diff.Align(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestGlobalRegressionExactOnUniformPolicy(t *testing.T) {
	a := uniformPair(t)
	s, err := GlobalRegression(a, "pay", []string{"pay"}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 1 {
		t.Fatalf("size = %d", s.Size())
	}
	ct := s.CTs[0]
	if !ct.Cond.IsTrue() {
		t.Error("global regression condition should be TRUE")
	}
	if math.Abs(ct.Tran.Coef[0]-1.1) > 1e-9 || math.Abs(ct.Tran.Intercept-100) > 1e-6 {
		t.Errorf("fit = %v + %v", ct.Tran.Coef, ct.Tran.Intercept)
	}
	if ct.Coverage != 1 {
		t.Errorf("coverage = %v", ct.Coverage)
	}
}

func TestGlobalRegressionNoChanges(t *testing.T) {
	a := uniformPair(t)
	// Align a snapshot with itself: nothing changed.
	self, err := diff.Align(a.Source, a.Source.Clone())
	if err != nil {
		t.Fatal(err)
	}
	s, err := GlobalRegression(self, "pay", []string{"pay"}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 0 {
		t.Errorf("no-change global summary should be empty, got %d CTs", s.Size())
	}
}

func TestGlobalRegressionRejectsCategorical(t *testing.T) {
	d, err := gen.Planted(gen.PlantedConfig{N: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := diff.Align(d.Src, d.Tgt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GlobalRegression(a, "pay", []string{"seg"}, 1e-9); err == nil {
		t.Error("categorical transformation attribute accepted")
	}
}

func TestCellListOneCTPerChange(t *testing.T) {
	a := uniformPair(t)
	s, err := CellList(a, "pay", 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 20 {
		t.Fatalf("cell list size = %d, want 20", s.Size())
	}
	// Each CT pins one row to its exact new value.
	preds, covered, err := s.Apply(a.Source)
	if err != nil {
		t.Fatal(err)
	}
	_, newVals, err := a.Delta("pay")
	if err != nil {
		t.Fatal(err)
	}
	for r := range preds {
		if !covered[r] {
			t.Errorf("row %d not covered by cell list", r)
		}
		if math.Abs(preds[r]-newVals[r]) > 1e-9 {
			t.Errorf("row %d: cell list predicts %v, want %v", r, preds[r], newVals[r])
		}
	}
}

func TestCellListPerfectAccuracyPoorInterpretability(t *testing.T) {
	a := uniformPair(t)
	s, err := CellList(a, "pay", 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	_, newVals, err := a.Delta("pay")
	if err != nil {
		t.Fatal(err)
	}
	changed, err := a.ChangedMask("pay", 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	bd, err := score.Evaluate(s, a.Source, newVals, changed, score.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if bd.Accuracy < 1-1e-9 {
		t.Errorf("cell list accuracy = %v", bd.Accuracy)
	}
	// 20 CTs for 20 rows: the size sub-score is 1/(1+0.25·19) ≈ 0.17 and the
	// harmonic mean keeps the aggregate well below a real summary's ≈ 0.9.
	if bd.Interpretability > 0.6 {
		t.Errorf("cell list interpretability = %v, want low", bd.Interpretability)
	}
	if bd.Size > 0.2 {
		t.Errorf("cell list size sub-score = %v", bd.Size)
	}
}

func TestNoChangeBaseline(t *testing.T) {
	s := NoChange("pay")
	if s.Size() != 0 || s.Target != "pay" {
		t.Errorf("NoChange = %+v", s)
	}
}

func TestUpdateDistance(t *testing.T) {
	a := uniformPair(t)
	d, err := UpdateDistance(a, "pay", 1e-9)
	if err != nil || d != 20 {
		t.Errorf("update distance = %d, %v", d, err)
	}
}

func TestBaselineOrderingOnPlantedPolicy(t *testing.T) {
	// On multi-rule data at α = 0.5 the single global regression must lose
	// accuracy (policy is not globally linear), while the cell list stays
	// perfectly accurate but uninterpretable.
	d, err := gen.Planted(gen.PlantedConfig{N: 400, Seed: 5, Rules: 3, UnchangedFrac: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	a, err := diff.Align(d.Src, d.Tgt)
	if err != nil {
		t.Fatal(err)
	}
	_, newVals, err := a.Delta("pay")
	if err != nil {
		t.Fatal(err)
	}
	changed, err := a.ChangedMask("pay", 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	w := score.DefaultWeights()

	global, err := GlobalRegression(a, "pay", []string{"pay"}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	gbd, err := score.Evaluate(global, d.Src, newVals, changed, w)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := CellList(a, "pay", 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	cbd, err := score.Evaluate(cells, d.Src, newVals, changed, w)
	if err != nil {
		t.Fatal(err)
	}
	tbd, err := score.Evaluate(d.Truth, d.Src, newVals, changed, w)
	if err != nil {
		t.Fatal(err)
	}
	if gbd.Accuracy > 0.9 {
		t.Errorf("global regression accuracy = %v, should suffer on 3-rule policy", gbd.Accuracy)
	}
	if cbd.Accuracy < 1-1e-9 {
		t.Errorf("cell list accuracy = %v", cbd.Accuracy)
	}
	if tbd.Blend(0.5) <= gbd.Blend(0.5) || tbd.Blend(0.5) <= cbd.Blend(0.5) {
		t.Errorf("truth summary (%.3f) should beat global (%.3f) and cell list (%.3f)", tbd.Blend(0.5), gbd.Blend(0.5), cbd.Blend(0.5))
	}
}
