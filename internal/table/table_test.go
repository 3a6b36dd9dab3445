package table

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func sampleTable(t *testing.T) *Table {
	t.Helper()
	tbl := MustNew(Schema{
		{Name: "id", Type: Int},
		{Name: "name", Type: String},
		{Name: "score", Type: Float},
		{Name: "active", Type: Bool},
	})
	tbl.MustAppendRow(I(1), S("ann"), F(9.5), B(true))
	tbl.MustAppendRow(I(2), S("bob"), F(7.25), B(false))
	tbl.MustAppendRow(I(3), S("cat"), Null(Float), B(true))
	if err := tbl.SetKey("id"); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestNewRejectsBadSchemas(t *testing.T) {
	if _, err := New(Schema{{Name: "", Type: Int}}); err == nil {
		t.Error("empty column name accepted")
	}
	if _, err := New(Schema{{Name: "a", Type: Int}, {Name: "a", Type: Float}}); err == nil {
		t.Error("duplicate column name accepted")
	}
}

func TestAppendRowArityAndTypes(t *testing.T) {
	tbl := MustNew(Schema{{Name: "a", Type: Int}, {Name: "b", Type: String}})
	if err := tbl.AppendRow(I(1)); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := tbl.AppendRow(S("x"), S("y")); err == nil {
		t.Error("string into int column accepted")
	}
	if err := tbl.AppendRow(I(1), B(true)); err == nil {
		t.Error("bool into string column accepted")
	}
	// Numeric cross-type append converts.
	if err := tbl.AppendRow(F(2.9), S("ok")); err != nil {
		t.Fatalf("float into int column: %v", err)
	}
	v, err := tbl.Value(0, "a")
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 2 {
		t.Errorf("float truncation: got %d, want 2", v.Int())
	}
}

func TestValueAccessAndBounds(t *testing.T) {
	tbl := sampleTable(t)
	v, err := tbl.Value(1, "name")
	if err != nil || v.Str() != "bob" {
		t.Errorf("Value(1,name) = %v, %v", v, err)
	}
	if _, err := tbl.Value(0, "nope"); err == nil {
		t.Error("missing column accepted")
	}
	if _, err := tbl.Value(99, "name"); err == nil {
		t.Error("row out of range accepted")
	}
	if _, err := tbl.Column("nope"); err == nil {
		t.Error("missing column lookup accepted")
	}
}

func TestNullHandling(t *testing.T) {
	tbl := sampleTable(t)
	col := tbl.MustColumn("score")
	if !col.IsNull(2) {
		t.Error("row 2 score should be null")
	}
	if !math.IsNaN(col.Float(2)) {
		t.Error("null Float() should be NaN")
	}
	v := col.Value(2)
	if !v.IsNull() || v.Type() != Float {
		t.Errorf("null value round-trip broken: %v", v)
	}
}

func TestKeyIndexAndDuplicates(t *testing.T) {
	tbl := sampleTable(t)
	k, err := tbl.KeyOf(1)
	if err != nil || k != "2" {
		t.Fatalf("KeyOf(1) = %q, %v", k, err)
	}
	idx, err := tbl.KeyIndexFor(tbl.Key())
	if err != nil {
		t.Fatal(err)
	}
	if row, ok := idx["3"]; !ok || row != 2 {
		t.Fatalf("index[3] = %d, %v", row, ok)
	}
	if row, ok := idx["404"]; ok {
		t.Fatalf("missing key indexed at row %d", row)
	}

	dup := MustNew(Schema{{Name: "id", Type: Int}})
	dup.MustAppendRow(I(1))
	dup.MustAppendRow(I(1))
	if err := dup.SetKey("id"); err != nil {
		t.Fatal(err)
	}
	if _, err := dup.KeyIndexFor(dup.Key()); err == nil {
		t.Error("duplicate key index build should fail")
	}
}

func TestSetKeyValidation(t *testing.T) {
	tbl := sampleTable(t)
	if err := tbl.SetKey("ghost"); err == nil {
		t.Error("unknown key column accepted")
	}
	if _, err := MustNew(Schema{{Name: "a", Type: Int}}).KeyOf(0); err == nil {
		t.Error("KeyOf without key should fail")
	}
}

func TestCloneIsDeep(t *testing.T) {
	tbl := sampleTable(t)
	cp := tbl.Clone()
	if !tbl.Equal(cp) {
		t.Fatal("clone should equal original")
	}
	if err := cp.MustColumn("name").Set(0, S("zed")); err != nil {
		t.Fatal(err)
	}
	if v, _ := tbl.Value(0, "name"); v.Str() != "ann" {
		t.Error("mutating clone changed original")
	}
}

func TestFilterProjectGather(t *testing.T) {
	tbl := sampleTable(t)
	ft, err := tbl.Filter([]bool{true, false, true})
	if err != nil {
		t.Fatal(err)
	}
	if ft.NumRows() != 2 {
		t.Fatalf("filter rows = %d, want 2", ft.NumRows())
	}
	if v, _ := ft.Value(1, "name"); v.Str() != "cat" {
		t.Errorf("filtered row 1 = %q, want cat", v.Str())
	}
	if _, err := tbl.Filter([]bool{true}); err == nil {
		t.Error("bad mask length accepted")
	}

	gt := tbl.Gather([]int{2, 0})
	if gt.NumRows() != 2 {
		t.Fatal("gather rows wrong")
	}
	if v, _ := gt.Value(0, "id"); v.Int() != 3 {
		t.Errorf("gather order wrong: %v", v)
	}
}

func TestSortByKey(t *testing.T) {
	tbl := MustNew(Schema{{Name: "k", Type: String}, {Name: "v", Type: Int}})
	tbl.MustAppendRow(S("b"), I(2))
	tbl.MustAppendRow(S("a"), I(1))
	tbl.MustAppendRow(S("c"), I(3))
	if err := tbl.SetKey("k"); err != nil {
		t.Fatal(err)
	}
	sorted, err := tbl.SortByKey()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i, w := range want {
		if v, _ := sorted.Value(i, "k"); v.Str() != w {
			t.Errorf("row %d = %q, want %q", i, v.Str(), w)
		}
	}
	// Original unchanged.
	if v, _ := tbl.Value(0, "k"); v.Str() != "b" {
		t.Error("SortByKey mutated the receiver")
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	a := sampleTable(t)
	b := sampleTable(t)
	if !a.Equal(b) {
		t.Fatal("identical tables unequal")
	}
	if err := b.MustColumn("score").Set(0, F(1)); err != nil {
		t.Fatal(err)
	}
	if a.Equal(b) {
		t.Error("cell difference not detected")
	}
	c := MustNew(Schema{{Name: "x", Type: Int}})
	if a.Equal(c) {
		t.Error("schema difference not detected")
	}
}

func TestColumnStats(t *testing.T) {
	tbl := sampleTable(t)
	st := tbl.MustColumn("score").Stats()
	if st.N != 2 || st.Nulls != 1 {
		t.Errorf("N=%d Nulls=%d, want 2,1", st.N, st.Nulls)
	}
	if st.Min != 7.25 || st.Max != 9.5 {
		t.Errorf("min/max = %v/%v", st.Min, st.Max)
	}
	if math.Abs(st.Mean-8.375) > 1e-12 {
		t.Errorf("mean = %v, want 8.375", st.Mean)
	}
	catStats := tbl.MustColumn("name").Stats()
	if catStats.Distinct != 3 || !math.IsNaN(catStats.Mean) {
		t.Errorf("categorical stats wrong: %+v", catStats)
	}
}

func TestDistinct(t *testing.T) {
	tbl := MustNew(Schema{{Name: "s", Type: String}})
	for _, v := range []string{"b", "a", "b", "c", "a"} {
		tbl.MustAppendRow(S(v))
	}
	got := tbl.MustColumn("s").Distinct()
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("distinct = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("distinct[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestStringRendering(t *testing.T) {
	tbl := sampleTable(t)
	out := tbl.String()
	if !strings.Contains(out, "ann") || !strings.Contains(out, "NULL") {
		t.Errorf("render missing content:\n%s", out)
	}
	big := MustNew(Schema{{Name: "n", Type: Int}})
	for i := 0; i < 30; i++ {
		big.MustAppendRow(I(int64(i)))
	}
	if !strings.Contains(big.String(), "more rows") {
		t.Error("large table should be truncated with a note")
	}
}

func TestColumnSetTypeChecks(t *testing.T) {
	tbl := sampleTable(t)
	if err := tbl.MustColumn("id").Set(0, S("x")); err == nil {
		t.Error("string into int column via Set accepted")
	}
	if err := tbl.MustColumn("score").Set(2, F(5)); err != nil {
		t.Fatal(err)
	}
	if tbl.MustColumn("score").IsNull(2) {
		t.Error("Set should clear null flag")
	}
	if err := tbl.MustColumn("score").Set(2, Null(Float)); err != nil {
		t.Fatal(err)
	}
	if !tbl.MustColumn("score").IsNull(2) {
		t.Error("Set(null) should set null flag")
	}
}

// TestEncodeKeyRoundTrip pins the escaped multi-part key encoding: distinct
// part tuples encode distinctly (even when cells contain the separator or
// the escape character) and DecodeKey inverts EncodeKey exactly.
func TestEncodeKeyRoundTrip(t *testing.T) {
	cases := [][]string{
		{"plain"},
		{"a", "b"},
		{"a" + KeySep + "b", "c"},
		{"a", "b" + KeySep + "c"},
		{"with\\backslash", "x"},
		{"\\", KeySep},
		{"", ""},
		{KeySep + KeySep, "", "x"},
		{"x\x1ey", "z"},
		{"\x1e", "\x1e" + KeySep},
	}
	seen := map[string][]string{}
	for _, parts := range cases {
		enc := EncodeKey(parts)
		if prev, dup := seen[enc]; dup {
			t.Fatalf("EncodeKey collision: %q and %q both encode to %q", prev, parts, enc)
		}
		seen[enc] = parts
		dec, err := DecodeKey(enc, len(parts))
		if err != nil {
			t.Fatalf("DecodeKey(%q, %d): %v", enc, len(parts), err)
		}
		if !reflect.DeepEqual(dec, parts) {
			t.Fatalf("DecodeKey(EncodeKey(%q)) = %q", parts, dec)
		}
	}
	// The two classic aliasing victims must not collide.
	if EncodeKey([]string{"a" + KeySep + "b", "c"}) == EncodeKey([]string{"a", "b" + KeySep + "c"}) {
		t.Fatal("separator-bearing keys alias")
	}
	if _, err := DecodeKey("a"+KeySep+"b", 3); err == nil {
		t.Error("DecodeKey with wrong part count should fail")
	}
	if _, err := DecodeKey("dangling\x1e", 2); err == nil {
		t.Error("DecodeKey with dangling escape should fail")
	}
	// Keys without either control character keep the historical raw-join
	// encoding, so existing stores' delta-op keys stay readable.
	if got := EncodeKey([]string{"C:\\data", "x"}); got != "C:\\data"+KeySep+"x" {
		t.Errorf("backslash key re-encoded to %q, want the raw join", got)
	}
}

// TestKeyForUsesEscapedEncoding pins KeyOf/KeyFor on the shared encoder: a
// cell containing the separator no longer makes two distinct rows collide.
func TestKeyForUsesEscapedEncoding(t *testing.T) {
	tbl := MustNew(Schema{{Name: "k1", Type: String}, {Name: "k2", Type: String}})
	tbl.MustAppendRow(S("a"+KeySep+"b"), S("c"))
	tbl.MustAppendRow(S("a"), S("b"+KeySep+"c"))
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
		t.Fatalf("distinct multi-column keys alias to %q", k0)
	}
	idx, err := tbl.KeyIndexFor([]string{"k1", "k2"})
	if err != nil {
		t.Fatalf("KeyIndexFor rejected a valid table: %v", err)
	}
	if len(idx) != 2 {
		t.Fatalf("index has %d entries, want 2", len(idx))
	}
}
