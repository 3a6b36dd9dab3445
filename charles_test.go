package charles

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"charles/internal/core"
	"charles/internal/csvio"
	"charles/internal/score"
	"charles/internal/table"
)

// TestPublicAPIEndToEnd exercises the full public surface the way the
// quickstart example does: datasets → assistant → summarize → render.
func TestPublicAPIEndToEnd(t *testing.T) {
	src, tgt := ToyDataset()
	cond, tran, err := SuggestAttributes(src, tgt, "bonus")
	if err != nil {
		t.Fatal(err)
	}
	if len(cond) == 0 || len(tran) == 0 {
		t.Fatal("assistant returned no suggestions")
	}
	ranked, err := Summarize(src, tgt, DefaultOptions("bonus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) == 0 {
		t.Fatal("no summaries")
	}
	if ranked[0].Breakdown.Score < 0.85 {
		t.Errorf("top score = %v", ranked[0].Breakdown.Score)
	}

	tree := RenderTree(ranked[0].Summary)
	if !strings.Contains(tree, "edu = PhD") || !strings.Contains(tree, "(no change)") {
		t.Errorf("tree render:\n%s", tree)
	}
	tm := RenderTreemap(ranked[0].Summary, 40)
	if !strings.Contains(tm, "%") {
		t.Errorf("treemap render:\n%s", tm)
	}
	list := RenderRanked(ranked)
	if !strings.Contains(list, "#1") || !strings.Contains(list, "score") {
		t.Errorf("ranked render:\n%s", list)
	}
}

func TestPublicCSVRoundTrip(t *testing.T) {
	src, _ := ToyDataset()
	dir := t.TempDir()
	path := filepath.Join(dir, "toy.csv")
	if err := SaveCSV(path, src); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSV(path, "name")
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != src.NumRows() {
		t.Errorf("round-trip rows = %d", back.NumRows())
	}
	v, err := back.Value(0, "bonus")
	if err != nil || v.Float() != 23000 {
		t.Errorf("round-trip cell = %v, %v", v, err)
	}
	// And the whole pipeline still works on the reloaded tables.
	var buf bytes.Buffer
	if err := csvio.Write(&buf, back); err != nil {
		t.Fatal(err)
	}
	reread, err := csvio.Read(&buf, csvio.Options{Key: []string{"name"}})
	if err != nil {
		t.Fatal(err)
	}
	if reread.NumRows() != 9 {
		t.Errorf("csvio.Read rows = %d", reread.NumRows())
	}
}

func TestPublicChangesAndAlign(t *testing.T) {
	src, tgt := ToyDataset()
	changes, err := Changes(src, tgt, "bonus")
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 7 {
		t.Errorf("bonus changes = %d, want 7 (Cathy and James unchanged)", len(changes))
	}
	a, err := Align(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := SummarizeAligned(a, DefaultOptions("bonus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) == 0 {
		t.Fatal("no summaries from aligned path")
	}
}

func TestPublicTableConstruction(t *testing.T) {
	tbl, err := table.New(Schema{
		{Name: "id", Type: Int},
		{Name: "x", Type: Float},
		{Name: "s", Type: String},
		{Name: "b", Type: Bool},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendRow(I(1), F(2.5), S("a"), B(true)); err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 1 || tbl.NumCols() != 4 {
		t.Errorf("dims = %d×%d", tbl.NumRows(), tbl.NumCols())
	}
}

func TestPublicGenerators(t *testing.T) {
	d, err := PlantedDataset(PlantedConfig{N: 300, Seed: 1, Rules: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.Src.NumRows() != 300 || d.Truth.Size() != 2 {
		t.Errorf("planted dataset: rows=%d rules=%d", d.Src.NumRows(), d.Truth.Size())
	}
	m, err := MontgomeryDataset(1, 200)
	if err != nil || m.Src.NumRows() != 200 {
		t.Errorf("montgomery: %v", err)
	}
	b, err := BillionairesDataset(1, 200)
	if err != nil || b.Src.NumRows() != 200 {
		t.Errorf("billionaires: %v", err)
	}
	if ToyTruth().Size() != 3 {
		t.Error("toy truth should have 3 rules")
	}
}

func TestCustomWeightsFlowThrough(t *testing.T) {
	src, tgt := ToyDataset()
	opts := DefaultOptions("bonus")
	// Accuracy-only weighting at α=1 should still rank a perfect summary
	// first; interpretability-only weights change the blend.
	opts.Weights = Weights{Size: 5, CondSimplicity: 1, TranSimplicity: 1, Coverage: 1, Normality: 1}
	ranked, err := Summarize(src, tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) == 0 {
		t.Fatal("no summaries with custom weights")
	}
	def, err := Summarize(src, tgt, DefaultOptions("bonus"))
	if err != nil {
		t.Fatal(err)
	}
	// Heavier size weighting must not increase the interpretability of a
	// multi-CT summary relative to default weights.
	if ranked[0].Summary.Size() > 1 && def[0].Summary.Size() > 1 &&
		ranked[0].Breakdown.Interpretability > def[0].Breakdown.Interpretability+1e-9 {
		t.Error("size-heavy weights increased interpretability of a large summary")
	}
}

// TestPublicEvaluate scores the toy's ground truth through the public
// entry point: the breakdown equals the row-at-a-time reference blended at
// α, and an α outside [0,1] is rejected.
func TestPublicEvaluate(t *testing.T) {
	src, tgt := ToyDataset()
	a, err := Align(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	_, actual, err := a.Delta("bonus")
	if err != nil {
		t.Fatal(err)
	}
	changed, err := a.ChangedMask("bonus", core.ChangeTol)
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []float64{0, 0.5, 1} {
		got, err := Evaluate(ToyTruth(), a.Source, actual, changed, alpha, DefaultWeights())
		if err != nil {
			t.Fatal(err)
		}
		want, err := score.Evaluate(ToyTruth(), a.Source, actual, changed, DefaultWeights())
		if err != nil {
			t.Fatal(err)
		}
		want.Score = want.Blend(alpha)
		if *got != *want {
			t.Errorf("alpha %v: Evaluate %+v, reference %+v", alpha, *got, *want)
		}
		if got.Accuracy < 1-1e-9 {
			t.Errorf("alpha %v: the ground truth scores accuracy %v", alpha, got.Accuracy)
		}
	}
	for _, alpha := range []float64{-0.1, 1.5} {
		if _, err := Evaluate(ToyTruth(), a.Source, actual, changed, alpha, DefaultWeights()); err == nil {
			t.Errorf("alpha %v accepted", alpha)
		}
	}
}
