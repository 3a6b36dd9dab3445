package diff

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"charles/internal/csvio"
	"charles/internal/table"
)

// deltaBase builds a canonical (key-sorted) 4-row base snapshot.
func deltaBase(t *testing.T) *table.Table {
	t.Helper()
	schema := table.Schema{
		{Name: "id", Type: table.String},
		{Name: "grade", Type: table.Int},
		{Name: "pay", Type: table.Float},
		{Name: "dept", Type: table.String},
	}
	b := table.MustNew(schema)
	b.MustAppendRow(table.S("a"), table.I(1), table.F(100.5), table.S("eng"))
	b.MustAppendRow(table.S("b"), table.I(2), table.F(200.5), table.S("fin"))
	b.MustAppendRow(table.S("c"), table.I(3), table.F(300.5), table.S("pol"))
	b.MustAppendRow(table.S("d"), table.I(4), table.F(400.5), table.S("eng"))
	if err := b.SetKey("id"); err != nil {
		t.Fatal(err)
	}
	return b
}

// readChild parses the expected child snapshot of a change set from CSV,
// keyed like deltaBase: the table a checkout of that version yields.
func readChild(t *testing.T, doc string) *table.Table {
	t.Helper()
	child, err := csvio.Read(strings.NewReader(doc), csvio.Options{Key: []string{"id"}})
	if err != nil {
		t.Fatal(err)
	}
	return child
}

func TestResultFromChangeSetMatchesPair(t *testing.T) {
	base := deltaBase(t)
	cs := &ChangeSet{
		Removed:  []string{"b"},
		Inserted: []InsertedRow{{Key: "e", Cells: []string{"e", "5", "500.5", "fin"}}},
		Patched: []RowPatch{
			{Key: "a", Cols: []int{2}, Vals: []string{"150.5"}},
			{Key: "c", Cols: []int{1, 3}, Vals: []string{"30", "eng"}},
			{Key: "d", Cols: []int{2}, Vals: []string{"400.5"}}, // no-op patch: same value
		},
	}
	got, err := ResultFromChangeSets(base, []*ChangeSet{cs}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	child := readChild(t, "id,grade,pay,dept\na,1,150.5,eng\nc,30,300.5,eng\nd,4,400.5,eng\ne,5,500.5,fin\n")
	want, err := ResultFromPair(base, child, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delta-native result differs\ngot:  %+v\nwant: %+v", got, want)
	}
	if got.UpdateDistance != 3 {
		t.Errorf("update distance = %d, want 3 (no-op patch must not count)", got.UpdateDistance)
	}
	if !reflect.DeepEqual(got.Removed, []string{"b"}) || !reflect.DeepEqual(got.Inserted, []string{"e"}) {
		t.Errorf("removed/inserted = %v / %v", got.Removed, got.Inserted)
	}
	if !reflect.DeepEqual(got.ChangedAttrs, []string{"grade", "pay", "dept"}) {
		t.Errorf("changed attrs = %v, want schema order [grade pay dept]", got.ChangedAttrs)
	}
}

// TestChangeSetComposition pins the multi-hop compose rules: patch-then-patch
// keeps the last value, insert-then-patch patches the pending row,
// insert-then-remove vanishes, remove-then-insert becomes a cell comparison,
// and a patch landing back on the original value is no change at all.
func TestChangeSetComposition(t *testing.T) {
	base := deltaBase(t)
	s1 := &ChangeSet{
		Removed:  []string{"b"},
		Inserted: []InsertedRow{{Key: "x", Cells: []string{"x", "9", "900.5", "new"}}},
		Patched: []RowPatch{
			{Key: "a", Cols: []int{2}, Vals: []string{"111.5"}},
			{Key: "c", Cols: []int{3}, Vals: []string{"tmp"}},
		},
	}
	s2 := &ChangeSet{
		Removed:  []string{"x"},                                                        // insert then remove: never existed
		Inserted: []InsertedRow{{Key: "b", Cells: []string{"b", "2", "250.5", "fin"}}}, // remove then re-insert: cell change
		Patched: []RowPatch{
			{Key: "a", Cols: []int{2}, Vals: []string{"122.5"}}, // patch twice: last wins
			{Key: "c", Cols: []int{3}, Vals: []string{"pol"}},   // patched back: no change
		},
	}
	got, err := ResultFromChangeSets(base, []*ChangeSet{s1, s2}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	child := readChild(t, "id,grade,pay,dept\na,1,122.5,eng\nb,2,250.5,fin\nc,3,300.5,pol\nd,4,400.5,eng\n")
	want, err := ResultFromPair(base, child, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("composed result differs\ngot:  %+v\nwant: %+v", got, want)
	}
	if len(got.Removed) != 0 || len(got.Inserted) != 0 {
		t.Errorf("removed/inserted = %v / %v, want none (all membership changes cancelled)", got.Removed, got.Inserted)
	}
	// a patched twice (one change) + b removed-and-reinserted with a new pay
	// (one change); c patched back and x inserted-then-removed contribute
	// nothing.
	if got.UpdateDistance != 2 {
		t.Errorf("update distance = %d, want 2", got.UpdateDistance)
	}
}

func TestResultFromChangeSetTolerance(t *testing.T) {
	base := deltaBase(t)
	cs := &ChangeSet{Patched: []RowPatch{{Key: "a", Cols: []int{2}, Vals: []string{"100.5000001"}}}}
	res, err := ResultFromChangeSets(base, []*ChangeSet{cs}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if res.UpdateDistance != 0 {
		t.Errorf("sub-tolerance patch counted as a change: %+v", res.Changes)
	}
	res, err = ResultFromChangeSets(base, []*ChangeSet{cs}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if res.UpdateDistance != 1 {
		t.Errorf("supra-tolerance patch not counted: %+v", res.Changes)
	}
}

func TestResultFromChangeSetNullTransitions(t *testing.T) {
	base := deltaBase(t)
	cs := &ChangeSet{Patched: []RowPatch{{Key: "a", Cols: []int{2}, Vals: []string{""}}}}
	res, err := ResultFromChangeSets(base, []*ChangeSet{cs}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if res.UpdateDistance != 1 || !res.Changes[0].New.IsNull() {
		t.Fatalf("null transition not reported: %+v", res.Changes)
	}
	child := readChild(t, "id,grade,pay,dept\na,1,,eng\nb,2,200.5,fin\nc,3,300.5,pol\nd,4,400.5,eng\n")
	want, err := ResultFromPair(base, child, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("null-transition result differs\ngot:  %+v\nwant: %+v", res, want)
	}
}

// TestResultFromChangeSetRejects pins the fallback contract: queries the ops
// cannot answer faithfully are ErrNotDeltaNative, never silently wrong.
func TestResultFromChangeSetRejects(t *testing.T) {
	base := deltaBase(t)
	cases := map[string]*ChangeSet{
		"materialized":        {Materialized: true},
		"key column patch":    {Patched: []RowPatch{{Key: "a", Cols: []int{0}, Vals: []string{"z"}}}},
		"column out of range": {Patched: []RowPatch{{Key: "a", Cols: []int{9}, Vals: []string{"1"}}}},
		"remove missing key":  {Removed: []string{"nope"}},
		"patch missing key":   {Patched: []RowPatch{{Key: "nope", Cols: []int{2}, Vals: []string{"1.5"}}}},
		"insert existing key": {Inserted: []InsertedRow{{Key: "a", Cells: []string{"a", "1", "1.5", "x"}}}},
		"short insert":        {Inserted: []InsertedRow{{Key: "z", Cells: []string{"z", "1"}}}},
		// Cells that do not parse under the base schema: the answer would
		// need the child's wider column types.
		"unparsable cell":   {Patched: []RowPatch{{Key: "a", Cols: []int{1}, Vals: []string{"not-an-int"}}}},
		"unparsable insert": {Inserted: []InsertedRow{{Key: "z", Cells: []string{"z", "x", "1.5", "q"}}}},
	}
	for name, cs := range cases {
		if _, err := ResultFromChangeSets(base, []*ChangeSet{cs}, 1e-9); !errors.Is(err, ErrNotDeltaNative) {
			t.Errorf("%s: err = %v, want ErrNotDeltaNative", name, err)
		}
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

// TestDuplicatedPatchColumnLastWins pins the corrupt-ish-but-decodable op
// shape a delta pack could carry: the same column index twice in one patch.
// Reconstruction applies the writes in order (last wins), so the change
// query must report exactly the final value — and nothing when the final
// write lands back on the original.
func TestDuplicatedPatchColumnLastWins(t *testing.T) {
	base := deltaBase(t)
	cs := &ChangeSet{Patched: []RowPatch{{Key: "a", Cols: []int{2, 2}, Vals: []string{"150.5", "175.5"}}}}
	res, err := ResultFromChangeSets(base, []*ChangeSet{cs}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	child := readChild(t, "id,grade,pay,dept\na,1,175.5,eng\nb,2,200.5,fin\nc,3,300.5,pol\nd,4,400.5,eng\n")
	want, err := ResultFromPair(base, child, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("duplicated-column patch differs\ngot:  %+v\nwant: %+v", res, want)
	}
	if res.UpdateDistance != 1 || res.Changes[0].New.Str() != "175.5" {
		t.Fatalf("changes = %+v, want one change to 175.5", res.Changes)
	}

	// Final write restores the original value: no change at all.
	cancel := &ChangeSet{Patched: []RowPatch{{Key: "a", Cols: []int{2, 2}, Vals: []string{"150.5", "100.5"}}}}
	res, err = ResultFromChangeSets(base, []*ChangeSet{cancel}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if res.UpdateDistance != 0 {
		t.Fatalf("cancelled duplicate patch still reported: %+v", res.Changes)
	}
}

// TestInsertKeyCellMismatchRejected pins the op-consistency gate: an insert
// whose declared key disagrees with its own key cells is corrupt and must
// not be answered from deltas.
func TestInsertKeyCellMismatchRejected(t *testing.T) {
	base := deltaBase(t)
	cs := &ChangeSet{Inserted: []InsertedRow{{Key: "z", Cells: []string{"zz", "5", "5.5", "fin"}}}}
	if _, err := ResultFromChangeSets(base, []*ChangeSet{cs}, 1e-9); !errors.Is(err, ErrNotDeltaNative) {
		t.Errorf("ResultFromChangeSets err = %v, want ErrNotDeltaNative", err)
	}
}
