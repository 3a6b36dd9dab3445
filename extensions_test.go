package charles

import (
	"context"
	"strings"
	"testing"

	"charles/internal/gen"
)

func TestSummarizeAllMontgomery(t *testing.T) {
	// base_salary, overtime_pay, and longevity_pay all evolve; SummarizeAll
	// must cover the numeric ones and skip nothing (all are numeric here).
	d, err := MontgomeryDataset(7, 600)
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultOptions("ignored")
	base.CondAttrs = []string{"department", "grade"}
	res, err := SummarizeAll(d.Src, d.Tgt, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"base_salary", "overtime_pay", "longevity_pay"} {
		if _, ok := res.ByAttr[want]; !ok {
			t.Errorf("attribute %q not summarized (got %v)", want, res.Attrs)
		}
	}
	// The base-salary policy must still be recovered in the multi run.
	top := res.ByAttr["base_salary"][0]
	if top.Breakdown.Score < 0.8 {
		t.Errorf("base_salary top score = %v", top.Breakdown.Score)
	}
	// Longevity: flat +250 for grade ≥ 15 — a 1-CT summary with an exact fit.
	ltop := res.ByAttr["longevity_pay"][0]
	if ltop.Breakdown.Accuracy < 0.99 {
		t.Errorf("longevity_pay accuracy = %v", ltop.Breakdown.Accuracy)
	}
}

func TestSummarizeAllSkipsCategorical(t *testing.T) {
	src, _ := ToyDataset()
	tgt := src.Clone()
	// Change a categorical attribute only.
	if err := tgt.MustColumn("edu").Set(0, S("MS")); err != nil {
		t.Fatal(err)
	}
	res, err := SummarizeAll(src, tgt, DefaultOptions("ignored"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Attrs) != 0 {
		t.Errorf("no numeric attribute changed, got summaries for %v", res.Attrs)
	}
	if _, ok := res.Skipped["edu"]; !ok {
		t.Errorf("edu should be reported as skipped: %v", res.Skipped)
	}
}

func TestExportSQLEndToEnd(t *testing.T) {
	src, tgt := ToyDataset()
	ranked, err := Summarize(src, tgt, DefaultOptions("bonus"))
	if err != nil {
		t.Fatal(err)
	}
	sql := ExportSQL(ranked[0].Summary, "employees")
	if !strings.Contains(sql, "UPDATE employees SET bonus = 1.05 * bonus + 1000 WHERE edu = 'PhD';") {
		t.Errorf("SQL export:\n%s", sql)
	}
	if !strings.Contains(sql, "-- ChARLES change summary") {
		t.Error("missing header comment")
	}
}

func TestSummarizeTimelinePublic(t *testing.T) {
	d1, d2 := ToyDataset()
	d3 := d2.Clone()
	mt, err := SummarizeTimeline(context.Background(), []*Table{d1, d2, d3}, "bonus", DefaultOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	tl := mt.Timelines["bonus"]
	if len(tl.Steps) != 2 || tl.Steps[1].NoChange != true {
		t.Errorf("timeline steps wrong: %+v", tl.Steps)
	}
	out := tl.Render()
	if !strings.Contains(out, "step 0 → 1") {
		t.Errorf("timeline render:\n%s", out)
	}
}

func TestNonlinearPublicOption(t *testing.T) {
	d, err := gen.PlantedNonlinear(31, 600)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(d.Target)
	opts.CondAttrs = d.CondAttrs
	opts.TranAttrs = d.TranAttrs
	opts.Nonlinear = true
	opts.T = 3
	ranked, err := Summarize(d.Src, d.Tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].Breakdown.Accuracy < 0.99 {
		t.Errorf("nonlinear accuracy via public API = %v", ranked[0].Breakdown.Accuracy)
	}
	if !strings.Contains(ranked[0].Summary.String(), "ln(pay)") {
		t.Errorf("log feature missing:\n%s", ranked[0].Summary)
	}
	// The SQL export of a nonlinear summary uses LN().
	sql := ExportSQL(ranked[0].Summary, "payroll")
	if !strings.Contains(sql, "LN(pay)") {
		t.Errorf("nonlinear SQL:\n%s", sql)
	}
}

func TestParallelWorkersMatchSerial(t *testing.T) {
	src, tgt := ToyDataset()
	serial := DefaultOptions("bonus")
	serial.Workers = 1
	parallel := DefaultOptions("bonus")
	parallel.Workers = 8
	a, err := Summarize(src, tgt, serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Summarize(src, tgt, parallel)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("worker count changed result size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Summary.Fingerprint() != b[i].Summary.Fingerprint() {
			t.Fatalf("worker count changed ranking at %d", i)
		}
	}
}

func TestAlignCommonSummarizePublic(t *testing.T) {
	// Delete one employee and hire another between the toy snapshots: the
	// strict path fails, the tolerant path still recovers the policy on the
	// surviving entities.
	src, tgt := ToyDataset()
	tgt2 := tgt.Gather([]int{0, 1, 2, 3, 4, 5, 6, 7}) // Frank left
	tgt2.MustAppendRow(S("Zoe"), S("F"), S("BS"), I(1), F(90000), F(9000))
	if err := tgt2.SetKey("name"); err != nil {
		t.Fatal(err)
	}
	if _, err := Summarize(src, tgt2, DefaultOptions("bonus")); err == nil {
		t.Fatal("strict summarize should reject insert/delete pair")
	}
	ca, err := AlignCommon(src, tgt2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ca.Deleted) != 1 || len(ca.Inserted) != 1 {
		t.Fatalf("deleted=%v inserted=%v", ca.Deleted, ca.Inserted)
	}
	ranked, err := SummarizeAligned(ca.Aligned, DefaultOptions("bonus"))
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].Breakdown.Score < 0.8 {
		t.Errorf("tolerant-path score = %v", ranked[0].Breakdown.Score)
	}
}
