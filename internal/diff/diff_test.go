package diff

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"charles/internal/table"
)

func snapshotPair(t *testing.T) (*table.Table, *table.Table) {
	t.Helper()
	schema := table.Schema{
		{Name: "id", Type: table.Int},
		{Name: "pay", Type: table.Float},
		{Name: "dept", Type: table.String},
	}
	src := table.MustNew(schema)
	tgt := table.MustNew(schema)
	src.MustAppendRow(table.I(1), table.F(100), table.S("a"))
	src.MustAppendRow(table.I(2), table.F(200), table.S("b"))
	src.MustAppendRow(table.I(3), table.F(300), table.S("c"))
	// Target rows deliberately permuted; pay changed for ids 1 and 3, dept
	// changed for id 2.
	tgt.MustAppendRow(table.I(3), table.F(330), table.S("c"))
	tgt.MustAppendRow(table.I(1), table.F(110), table.S("a"))
	tgt.MustAppendRow(table.I(2), table.F(200), table.S("z"))
	if err := src.SetKey("id"); err != nil {
		t.Fatal(err)
	}
	return src, tgt
}

func TestAlignMatchesPermutedRows(t *testing.T) {
	src, tgt := snapshotPair(t)
	a, err := Align(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 0} // src row i ↔ tgt row want[i]
	for i, w := range want {
		if a.TgtRow[i] != w {
			t.Errorf("TgtRow[%d] = %d, want %d", i, a.TgtRow[i], w)
		}
	}
}

func TestAlignSchemaMismatch(t *testing.T) {
	src, _ := snapshotPair(t)
	other := table.MustNew(table.Schema{{Name: "id", Type: table.Int}})
	if _, err := Align(src, other); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("err = %v, want ErrSchemaMismatch", err)
	}
}

func TestAlignNoKey(t *testing.T) {
	src, tgt := snapshotPair(t)
	noKey := src.Clone()
	if err := noKey.SetKey(); err != nil {
		t.Fatal(err)
	}
	if _, err := Align(noKey, tgt); !errors.Is(err, ErrNoKey) {
		t.Errorf("err = %v, want ErrNoKey", err)
	}
}

func TestAlignEntityMismatch(t *testing.T) {
	src, tgt := snapshotPair(t)
	shrunk := tgt.Gather([]int{0, 1})
	if _, err := Align(src, shrunk); !errors.Is(err, ErrEntityMismatch) {
		t.Errorf("row-count mismatch: err = %v", err)
	}
	// Same count, different entity.
	swapped := tgt.Clone()
	if err := swapped.MustColumn("id").Set(0, table.I(99)); err != nil {
		t.Fatal(err)
	}
	if _, err := Align(src, swapped); !errors.Is(err, ErrEntityMismatch) {
		t.Errorf("missing-key mismatch: err = %v", err)
	}
}

func TestDeltaAlignsValues(t *testing.T) {
	src, tgt := snapshotPair(t)
	a, err := Align(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	oldV, newV, err := a.Delta("pay")
	if err != nil {
		t.Fatal(err)
	}
	wantOld := []float64{100, 200, 300}
	wantNew := []float64{110, 200, 330}
	for i := range wantOld {
		if oldV[i] != wantOld[i] || newV[i] != wantNew[i] {
			t.Errorf("delta[%d] = (%v, %v), want (%v, %v)", i, oldV[i], newV[i], wantOld[i], wantNew[i])
		}
	}
}

func TestChangedMaskAndChanges(t *testing.T) {
	src, tgt := snapshotPair(t)
	a, err := Align(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	mask, err := a.ChangedMask("pay", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true}
	for i := range want {
		if mask[i] != want[i] {
			t.Errorf("mask[%d] = %v", i, mask[i])
		}
	}
	ch, err := a.Changes("pay", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch) != 2 || ch[0].SrcRow != 0 || ch[0].New.Float() != 110 {
		t.Errorf("changes = %+v", ch)
	}
	// Tolerance swallows small diffs.
	mask, err = a.ChangedMask("pay", 50)
	if err != nil {
		t.Fatal(err)
	}
	if mask[0] {
		t.Error("10-unit change should be under tolerance 50")
	}
}

func TestCategoricalChanges(t *testing.T) {
	src, tgt := snapshotPair(t)
	a, err := Align(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := a.Changes("dept", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch) != 1 || ch[0].Old.Str() != "b" || ch[0].New.Str() != "z" {
		t.Errorf("dept changes = %+v", ch)
	}
}

func TestAllChangesAndUpdateDistance(t *testing.T) {
	src, tgt := snapshotPair(t)
	a, err := Align(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	all, err := a.AllChanges(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Errorf("all changes = %d, want 3", len(all))
	}
	d, err := a.UpdateDistance(0)
	if err != nil || d != 3 {
		t.Errorf("update distance = %d, %v", d, err)
	}
}

func TestChangedAttrs(t *testing.T) {
	src, tgt := snapshotPair(t)
	a, err := Align(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	attrs, err := a.ChangedAttrs(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs) != 2 || attrs[0] != "pay" || attrs[1] != "dept" {
		t.Errorf("changed attrs = %v", attrs)
	}
}

func TestNullTransitionsAreChanges(t *testing.T) {
	schema := table.Schema{{Name: "id", Type: table.Int}, {Name: "v", Type: table.Float}}
	src := table.MustNew(schema)
	tgt := table.MustNew(schema)
	src.MustAppendRow(table.I(1), table.Null(table.Float))
	src.MustAppendRow(table.I(2), table.F(5))
	tgt.MustAppendRow(table.I(1), table.F(5))
	tgt.MustAppendRow(table.I(2), table.Null(table.Float))
	if err := src.SetKey("id"); err != nil {
		t.Fatal(err)
	}
	a, err := Align(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	mask, err := a.ChangedMask("v", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !mask[0] || !mask[1] {
		t.Errorf("null transitions not detected: %v", mask)
	}
}

func TestIdenticalSnapshotsNoChanges(t *testing.T) {
	src, _ := snapshotPair(t)
	a, err := Align(src, src.Clone())
	if err != nil {
		t.Fatal(err)
	}
	d, err := a.UpdateDistance(0)
	if err != nil || d != 0 {
		t.Errorf("identical snapshots update distance = %d, %v", d, err)
	}
	attrs, err := a.ChangedAttrs(0)
	if err != nil || len(attrs) != 0 {
		t.Errorf("changed attrs on identical = %v", attrs)
	}
}

func TestDeltaUnknownAttr(t *testing.T) {
	src, tgt := snapshotPair(t)
	a, err := Align(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Delta("ghost"); err == nil {
		t.Error("unknown attr accepted")
	}
	if _, err := a.ChangedMask("ghost", 0); err == nil {
		t.Error("unknown attr accepted in ChangedMask")
	}
}

func TestAlignCommonToleratesInsertsAndDeletes(t *testing.T) {
	schema := table.Schema{{Name: "id", Type: table.Int}, {Name: "pay", Type: table.Float}}
	src := table.MustNew(schema)
	tgt := table.MustNew(schema)
	// src: 1,2,3 — tgt: 2,3,4 (1 deleted, 4 inserted; 2 changed).
	src.MustAppendRow(table.I(1), table.F(100))
	src.MustAppendRow(table.I(2), table.F(200))
	src.MustAppendRow(table.I(3), table.F(300))
	tgt.MustAppendRow(table.I(2), table.F(220))
	tgt.MustAppendRow(table.I(3), table.F(300))
	tgt.MustAppendRow(table.I(4), table.F(400))
	if err := src.SetKey("id"); err != nil {
		t.Fatal(err)
	}
	ca, err := AlignCommon(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if len(ca.Deleted) != 1 || ca.Deleted[0] != 0 {
		t.Errorf("deleted = %v", ca.Deleted)
	}
	if len(ca.Inserted) != 1 || ca.Inserted[0] != 2 {
		t.Errorf("inserted = %v", ca.Inserted)
	}
	if ca.Source.NumRows() != 2 {
		t.Fatalf("common rows = %d", ca.Source.NumRows())
	}
	mask, err := ca.ChangedMask("pay", 0)
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for _, c := range mask {
		if c {
			changed++
		}
	}
	if changed != 1 {
		t.Errorf("changed common rows = %d, want 1", changed)
	}
	// Strict Align must still reject this pair.
	if _, err := Align(src, tgt); err == nil {
		t.Error("strict alignment accepted insert/delete pair")
	}
}

func TestAlignCommonIdenticalSets(t *testing.T) {
	src, tgt := snapshotPair(t)
	ca, err := AlignCommon(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if len(ca.Deleted) != 0 || len(ca.Inserted) != 0 {
		t.Errorf("no inserts/deletes expected: %v / %v", ca.Deleted, ca.Inserted)
	}
	if ca.Source.NumRows() != src.NumRows() {
		t.Errorf("common rows = %d", ca.Source.NumRows())
	}
}

func TestAlignCommonValidation(t *testing.T) {
	src, tgt := snapshotPair(t)
	other := table.MustNew(table.Schema{{Name: "id", Type: table.Int}})
	if _, err := AlignCommon(src, other); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("schema mismatch: %v", err)
	}
	noKey := src.Clone()
	if err := noKey.SetKey(); err != nil {
		t.Fatal(err)
	}
	if _, err := AlignCommon(noKey, tgt); !errors.Is(err, ErrNoKey) {
		t.Errorf("no key: %v", err)
	}
}

// TestNaNTransitionsAreChanges pins the cellChanged NaN semantics: a
// transition into or out of NaN is a change (like null), NaN on both sides
// is not. The naive |x−y| > tol comparison is always false against NaN,
// which historically made such transitions invisible to ChangedMask,
// ChangedAttrs, and UpdateDistance.
func TestNaNTransitionsAreChanges(t *testing.T) {
	schema := table.Schema{{Name: "id", Type: table.Int}, {Name: "v", Type: table.Float}}
	src := table.MustNew(schema)
	tgt := table.MustNew(schema)
	nan := math.NaN()
	src.MustAppendRow(table.I(1), table.F(nan)) // NaN → finite: changed
	src.MustAppendRow(table.I(2), table.F(5))   // finite → NaN: changed
	src.MustAppendRow(table.I(3), table.F(nan)) // NaN → NaN: unchanged
	src.MustAppendRow(table.I(4), table.F(7))   // finite → finite: unchanged
	tgt.MustAppendRow(table.I(1), table.F(5))
	tgt.MustAppendRow(table.I(2), table.F(nan))
	tgt.MustAppendRow(table.I(3), table.F(nan))
	tgt.MustAppendRow(table.I(4), table.F(7))
	if err := src.SetKey("id"); err != nil {
		t.Fatal(err)
	}
	a, err := Align(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	mask, err := a.ChangedMask("v", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, false, false}
	for i := range want {
		if mask[i] != want[i] {
			t.Errorf("mask[%d] = %v, want %v", i, mask[i], want[i])
		}
	}
	ud, err := a.UpdateDistance(0)
	if err != nil || ud != 2 {
		t.Errorf("update distance = %d, %v; want 2", ud, err)
	}
	attrs, err := a.ChangedAttrs(0)
	if err != nil || len(attrs) != 1 || attrs[0] != "v" {
		t.Errorf("changed attrs = %v, %v; want [v]", attrs, err)
	}
}

// TestAlignDoesNotMutateInputs pins the no-side-effect contract: aligning
// must leave the target's key declaration untouched (it used to SetKey the
// caller's table, racing concurrent aligns of a shared table).
func TestAlignDoesNotMutateInputs(t *testing.T) {
	src, tgt := snapshotPair(t)
	if got := tgt.Key(); len(got) != 0 {
		t.Fatalf("test precondition: tgt key = %v", got)
	}
	if _, err := Align(src, tgt); err != nil {
		t.Fatal(err)
	}
	if got := tgt.Key(); len(got) != 0 {
		t.Errorf("Align set the target's key: %v", got)
	}
	if _, err := AlignCommon(src, tgt); err != nil {
		t.Fatal(err)
	}
	if got := tgt.Key(); len(got) != 0 {
		t.Errorf("AlignCommon set the target's key: %v", got)
	}
}

// TestConcurrentAlignSharedTables aligns a chain of shared snapshots from
// many goroutines at once — the parallel-timeline access pattern, where the
// middle snapshot is one step's target and the next step's source. Run under
// -race (CI does) this pins that Align is free of input mutation.
func TestConcurrentAlignSharedTables(t *testing.T) {
	schema := table.Schema{{Name: "id", Type: table.Int}, {Name: "pay", Type: table.Float}}
	mk := func(bump float64) *table.Table {
		tbl := table.MustNew(schema)
		for i := 0; i < 64; i++ {
			tbl.MustAppendRow(table.I(int64(i)), table.F(float64(i*100)+bump))
		}
		if err := tbl.SetKey("id"); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	snaps := []*table.Table{mk(0), mk(10), mk(20), mk(30)}
	var wg sync.WaitGroup
	for iter := 0; iter < 8; iter++ {
		for i := 0; i+1 < len(snaps); i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				a, err := Align(snaps[i], snaps[i+1])
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := a.ChangedMask("pay", 0); err != nil {
					t.Error(err)
				}
			}(i)
		}
	}
	wg.Wait()
}

// TestMatchKeys pins the exported row-matching primitive the store's delta
// encoder and AlignCommon share: pairs in source order, one-sided rows in
// their own side's order, duplicates rejected with the offending key named.
func TestMatchKeys(t *testing.T) {
	m, err := MatchKeys([]string{"a", "b", "c", "e"}, []string{"b", "d", "a", "e"})
	if err != nil {
		t.Fatal(err)
	}
	wantPairs := [][2]int{{0, 2}, {1, 0}, {3, 3}}
	if !reflect.DeepEqual(m.Pairs, wantPairs) {
		t.Errorf("pairs = %v, want %v", m.Pairs, wantPairs)
	}
	if !reflect.DeepEqual(m.SrcOnly, []int{2}) {
		t.Errorf("srcOnly = %v, want [2]", m.SrcOnly)
	}
	if !reflect.DeepEqual(m.TgtOnly, []int{1}) {
		t.Errorf("tgtOnly = %v, want [1]", m.TgtOnly)
	}

	if _, err := MatchKeys([]string{"a", "a"}, []string{"b"}); err == nil || !strings.Contains(err.Error(), `"a"`) {
		t.Errorf("duplicate source key: err = %v", err)
	}
	if _, err := MatchKeys([]string{"a"}, []string{"b", "b"}); err == nil || !strings.Contains(err.Error(), `"b"`) {
		t.Errorf("duplicate target key: err = %v", err)
	}

	// Disjoint and empty inputs.
	m, err = MatchKeys(nil, []string{"x"})
	if err != nil || len(m.Pairs) != 0 || len(m.TgtOnly) != 1 {
		t.Errorf("empty source: %+v, %v", m, err)
	}
}

// TestMatchKeysSeparatorCollision is the key-aliasing regression test: two
// distinct multi-column keys whose cells contain the key separator must not
// encode identically (pre-fix, ("a\x1fb","c") and ("a","b\x1fc") aliased,
// corrupting MatchKeys and the store's delta encoder).
func TestMatchKeysSeparatorCollision(t *testing.T) {
	schema := table.Schema{
		{Name: "k1", Type: table.String},
		{Name: "k2", Type: table.String},
		{Name: "v", Type: table.Int},
	}
	tbl := table.MustNew(schema)
	tbl.MustAppendRow(table.S("a"+table.KeySep+"b"), table.S("c"), table.I(1))
	tbl.MustAppendRow(table.S("a"), table.S("b"+table.KeySep+"c"), table.I(2))
	if err := tbl.SetKey("k1", "k2"); err != nil {
		t.Fatal(err)
	}
	k0, err := tbl.KeyOf(0)
	if err != nil {
		t.Fatal(err)
	}
	k1, err := tbl.KeyOf(1)
	if err != nil {
		t.Fatal(err)
	}
	if k0 == k1 {
		t.Fatalf("distinct keys alias: %q", k0)
	}
	if _, err := tbl.KeyIndexFor(tbl.Key()); err != nil {
		t.Fatalf("valid table reported duplicate keys: %v", err)
	}
	if m, err := MatchKeys([]string{k0, k1}, []string{k1}); err != nil || len(m.Pairs) != 1 || len(m.SrcOnly) != 1 {
		t.Fatalf("MatchKeys over separator-bearing keys = %+v, %v", m, err)
	}
}

// resultTable builds a snapshot (id, grade, pay, dept) keyed by id, one row
// per value list.
func resultTable(t *testing.T, rows ...[]table.Value) *table.Table {
	t.Helper()
	tbl := table.MustNew(table.Schema{
		{Name: "id", Type: table.String},
		{Name: "grade", Type: table.Int},
		{Name: "pay", Type: table.Float},
		{Name: "dept", Type: table.String},
	})
	for _, r := range rows {
		tbl.MustAppendRow(r...)
	}
	if err := tbl.SetKey("id"); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func row(id string, grade int64, pay float64, dept string) []table.Value {
	return []table.Value{table.S(id), table.I(grade), table.F(pay), table.S(dept)}
}

// changeStrings renders a Result's changes as "key attr old→new", in order.
func changeStrings(res *Result) []string {
	var out []string
	for _, ch := range res.Changes {
		out = append(out, ch.Key+" "+ch.Attr+" "+ch.Old.String()+"→"+ch.New.String())
	}
	return out
}

// TestResultFromPairMembershipAndChanges pins the change-query answer
// itself: removed keys in source row order, inserted keys in target row
// order, changes attribute-major then source row order, changed attributes
// in schema order, and a cell rewritten to its old value is no change.
func TestResultFromPairMembershipAndChanges(t *testing.T) {
	src := resultTable(t,
		row("a", 1, 100.5, "eng"), row("b", 2, 200.5, "fin"),
		row("c", 3, 300.5, "pol"), row("d", 4, 400.5, "eng"))
	tgt := resultTable(t,
		row("e", 5, 500.5, "fin"), row("d", 4, 400.5, "eng"),
		row("c", 30, 300.5, "eng"), row("a", 1, 150.5, "eng"))
	res, err := ResultFromPair(src, tgt, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"id", "grade", "pay", "dept"}; !reflect.DeepEqual(res.Columns, want) {
		t.Errorf("columns = %v, want %v", res.Columns, want)
	}
	if !reflect.DeepEqual(res.Removed, []string{"b"}) || !reflect.DeepEqual(res.Inserted, []string{"e"}) {
		t.Errorf("removed/inserted = %v / %v, want [b] / [e]", res.Removed, res.Inserted)
	}
	want := []string{"c grade 3→30", "a pay 100.5→150.5", "c dept pol→eng"}
	if got := changeStrings(res); !reflect.DeepEqual(got, want) {
		t.Errorf("changes = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(res.ChangedAttrs, []string{"grade", "pay", "dept"}) || res.UpdateDistance != 3 {
		t.Errorf("changed attrs = %v, distance %d; want [grade pay dept], 3", res.ChangedAttrs, res.UpdateDistance)
	}
	if !res.HasColumn("id") || res.HasColumn("ghost") {
		t.Error("HasColumn disagrees with the schema")
	}
	if got := res.ChangesFor("pay"); len(got) != 1 || got[0].Key != "a" {
		t.Errorf("ChangesFor(pay) = %+v, want the one change of a", got)
	}
}

// TestResultFromPairTolerance pins the absolute change tolerance: a numeric
// move of 1e-7 is no change at 1e-3 and one change at 1e-9.
func TestResultFromPairTolerance(t *testing.T) {
	src := resultTable(t, row("a", 1, 100.5, "eng"), row("b", 2, 200.5, "fin"))
	tgt := resultTable(t, row("a", 1, 100.5000001, "eng"), row("b", 2, 200.5, "fin"))
	res, err := ResultFromPair(src, tgt, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if res.UpdateDistance != 0 || res.Changes != nil || res.ChangedAttrs != nil {
		t.Errorf("sub-tolerance move counted: %+v", res)
	}
	res, err = ResultFromPair(src, tgt, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := changeStrings(res), []string{"a pay 100.5→100.5000001"}; !reflect.DeepEqual(got, want) {
		t.Errorf("changes = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(res.ChangedAttrs, []string{"pay"}) || res.UpdateDistance != 1 {
		t.Errorf("changed attrs = %v, distance %d; want [pay], 1", res.ChangedAttrs, res.UpdateDistance)
	}
}

// TestResultFromPairNullAndNaNTransitions pins null and NaN in change
// queries: a move into or out of null or NaN is a change, null or NaN on
// both sides is not, whatever the tolerance.
func TestResultFromPairNullAndNaNTransitions(t *testing.T) {
	nan, null := math.NaN(), table.Null(table.Float)
	mk := func(pays ...table.Value) *table.Table {
		var rows [][]table.Value
		for i, p := range pays {
			rows = append(rows, []table.Value{table.S(string(rune('a' + i))), table.I(1), p, table.S("eng")})
		}
		return resultTable(t, rows...)
	}
	src := mk(table.F(1.5), null, table.F(nan), table.F(2.5), null, table.F(nan), table.F(3.5))
	tgt := mk(null, table.F(1.5), table.F(2.5), table.F(nan), null, table.F(nan), table.F(3.5))
	res, err := ResultFromPair(src, tgt, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a pay 1.5→NULL", "b pay NULL→1.5", "c pay NaN→2.5", "d pay 2.5→NaN"}
	if got := changeStrings(res); !reflect.DeepEqual(got, want) {
		t.Errorf("changes = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(res.ChangedAttrs, []string{"pay"}) || res.UpdateDistance != 4 {
		t.Errorf("changed attrs = %v, distance %d; want [pay], 4", res.ChangedAttrs, res.UpdateDistance)
	}
}
