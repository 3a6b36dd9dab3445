package model

import (
	"math/rand"
	"strings"
	"testing"

	"charles/internal/predicate"
	"charles/internal/table"
)

func employeeTable(t *testing.T) *table.Table {
	t.Helper()
	tbl := table.MustNew(table.Schema{
		{Name: "edu", Type: table.String},
		{Name: "bonus", Type: table.Float},
		{Name: "salary", Type: table.Float},
	})
	tbl.MustAppendRow(table.S("PhD"), table.F(23000), table.F(230000))
	tbl.MustAppendRow(table.S("MS"), table.F(16000), table.F(160000))
	tbl.MustAppendRow(table.S("BS"), table.F(11000), table.F(110000))
	return tbl
}

func TestTransformationApply(t *testing.T) {
	tbl := employeeTable(t)
	tr := Transformation{Target: "bonus", Inputs: []string{"bonus"}, Coef: []float64{1.05}, Intercept: 1000}
	got, err := tr.Apply(tbl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1.05*23000+1000 {
		t.Errorf("Apply = %v", got)
	}
	multi := Transformation{Target: "bonus", Inputs: []string{"bonus", "salary"}, Coef: []float64{0.5, 0.01}, Intercept: 10}
	got, err = multi.Apply(tbl, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.5*16000+0.01*160000+10 {
		t.Errorf("multi Apply = %v", got)
	}
}

func TestIdentityTransformation(t *testing.T) {
	tbl := employeeTable(t)
	id := Identity("bonus")
	if !id.NoChange {
		t.Fatal("Identity should be NoChange")
	}
	got, err := id.Apply(tbl, 2)
	if err != nil || got != 11000 {
		t.Errorf("identity Apply = %v, %v", got, err)
	}
	if id.Complexity() != 0 {
		t.Error("identity has no variables")
	}
	if id.String() != "no change" {
		t.Errorf("identity String = %q", id.String())
	}
}

func TestTransformationApplyUnknownAttr(t *testing.T) {
	tbl := employeeTable(t)
	tr := Transformation{Target: "bonus", Inputs: []string{"ghost"}, Coef: []float64{1}}
	if _, err := tr.Apply(tbl, 0); err == nil {
		t.Error("unknown input accepted")
	}
}

func TestTransformationComplexityAndConstants(t *testing.T) {
	tr := Transformation{Target: "y", Inputs: []string{"a", "b", "c"}, Coef: []float64{1.05, 0, -2}, Intercept: 400}
	if tr.Complexity() != 2 {
		t.Errorf("Complexity = %d (zero coefficients must not count)", tr.Complexity())
	}
}

func TestTransformationString(t *testing.T) {
	tr := Transformation{Target: "bonus", Inputs: []string{"bonus"}, Coef: []float64{1.05}, Intercept: 1000}
	if got := tr.String(); got != "new_bonus = 1.05×bonus + 1000" {
		t.Errorf("String = %q", got)
	}
	neg := Transformation{Target: "y", Inputs: []string{"x"}, Coef: []float64{-2}, Intercept: -3}
	if got := neg.String(); got != "new_y = -2×x - 3" {
		t.Errorf("negative String = %q", got)
	}
	constOnly := Transformation{Target: "y", Inputs: []string{"x"}, Coef: []float64{0}, Intercept: 7}
	if got := constOnly.String(); got != "new_y = 7" {
		t.Errorf("constant String = %q", got)
	}
}

func TestSummaryApplyFirstMatchWins(t *testing.T) {
	tbl := employeeTable(t)
	s := &Summary{
		Target: "bonus",
		CTs: []CT{
			{
				Cond: predicate.Predicate{Atoms: []predicate.Atom{predicate.StrAtom("edu", predicate.Eq, "PhD")}},
				Tran: Transformation{Target: "bonus", Inputs: []string{"bonus"}, Coef: []float64{2}},
			},
			{
				Cond: predicate.True(), // catches everything else, including PhD if ordered first
				Tran: Transformation{Target: "bonus", Inputs: []string{"bonus"}, Coef: []float64{3}},
			},
		},
	}
	preds, covered, err := s.Apply(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if preds[0] != 46000 {
		t.Errorf("PhD row should use the first CT: %v", preds[0])
	}
	if preds[1] != 48000 || preds[2] != 33000 {
		t.Errorf("fallthrough rows wrong: %v", preds)
	}
	for i, c := range covered {
		if !c {
			t.Errorf("row %d not covered", i)
		}
	}
}

func TestSummaryApplyUncoveredDefaultsToNoChange(t *testing.T) {
	tbl := employeeTable(t)
	s := &Summary{
		Target: "bonus",
		CTs: []CT{{
			Cond: predicate.Predicate{Atoms: []predicate.Atom{predicate.StrAtom("edu", predicate.Eq, "PhD")}},
			Tran: Transformation{Target: "bonus", Inputs: []string{"bonus"}, Coef: []float64{1.05}, Intercept: 1000},
		}},
	}
	preds, covered, err := s.Apply(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if covered[1] || covered[2] {
		t.Error("non-PhD rows should be uncovered")
	}
	if preds[1] != 16000 || preds[2] != 11000 {
		t.Errorf("uncovered rows should predict no change: %v", preds)
	}
}

func TestEmptySummaryIsIdentity(t *testing.T) {
	tbl := employeeTable(t)
	s := &Summary{Target: "bonus"}
	preds, covered, err := s.Apply(tbl)
	if err != nil {
		t.Fatal(err)
	}
	for i := range preds {
		if covered[i] {
			t.Error("empty summary covers nothing")
		}
		v, _ := tbl.Value(i, "bonus")
		if preds[i] != v.Float() {
			t.Errorf("row %d changed under empty summary", i)
		}
	}
}

func TestFingerprintOrderInsensitive(t *testing.T) {
	ct1 := CT{
		Cond: predicate.Predicate{Atoms: []predicate.Atom{predicate.StrAtom("edu", predicate.Eq, "PhD")}},
		Tran: Transformation{Target: "bonus", Inputs: []string{"bonus"}, Coef: []float64{1.05}, Intercept: 1000},
	}
	ct2 := CT{
		Cond: predicate.Predicate{Atoms: []predicate.Atom{predicate.StrAtom("edu", predicate.Eq, "MS")}},
		Tran: Transformation{Target: "bonus", Inputs: []string{"bonus"}, Coef: []float64{1.04}, Intercept: 800},
	}
	a := &Summary{Target: "bonus", CTs: []CT{ct1, ct2}}
	b := &Summary{Target: "bonus", CTs: []CT{ct2, ct1}}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprint should be order-insensitive")
	}
	c := &Summary{Target: "bonus", CTs: []CT{ct1}}
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different summaries share a fingerprint")
	}
}

func TestFingerprintShuffleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var cts []CT
	for i := 0; i < 6; i++ {
		cts = append(cts, CT{
			Cond: predicate.Predicate{Atoms: []predicate.Atom{predicate.NumAtom("x", predicate.Ge, float64(i))}},
			Tran: Transformation{Target: "y", Inputs: []string{"y"}, Coef: []float64{1 + float64(i)/100}},
		})
	}
	base := (&Summary{Target: "y", CTs: cts}).Fingerprint()
	for trial := 0; trial < 10; trial++ {
		shuffled := append([]CT(nil), cts...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if (&Summary{Target: "y", CTs: shuffled}).Fingerprint() != base {
			t.Fatal("shuffle changed fingerprint")
		}
	}
}

func TestIgnoredZeroCoefInFingerprint(t *testing.T) {
	a := Transformation{Target: "y", Inputs: []string{"p", "q"}, Coef: []float64{2, 0}, Intercept: 1}
	b := Transformation{Target: "y", Inputs: []string{"p"}, Coef: []float64{2}, Intercept: 1}
	sa := &Summary{Target: "y", CTs: []CT{{Cond: predicate.True(), Tran: a}}}
	sb := &Summary{Target: "y", CTs: []CT{{Cond: predicate.True(), Tran: b}}}
	if sa.Fingerprint() != sb.Fingerprint() {
		t.Error("zero-coefficient input should not alter the fingerprint")
	}
}

func TestSummaryString(t *testing.T) {
	s := &Summary{Target: "bonus", CTs: []CT{{
		Cond: predicate.Predicate{Atoms: []predicate.Atom{predicate.StrAtom("edu", predicate.Eq, "PhD")}},
		Tran: Transformation{Target: "bonus", Inputs: []string{"bonus"}, Coef: []float64{1.05}, Intercept: 1000},
	}}}
	out := s.String()
	if !strings.Contains(out, "CT1") || !strings.Contains(out, "edu = PhD") || !strings.Contains(out, "→") {
		t.Errorf("String = %q", out)
	}
	if s.Size() != 1 {
		t.Errorf("Size = %d", s.Size())
	}
}
