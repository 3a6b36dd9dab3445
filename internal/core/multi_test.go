package core

import (
	"math"
	"testing"

	"charles/internal/diff"
	"charles/internal/table"
)

// multiPair builds a snapshot pair whose two changed numeric attributes are
// deliberately ordered against lexicographic order in the schema (zeta
// before alpha), so the Attrs ordering contract is observable.
func multiPair(t *testing.T) (*table.Table, *table.Table) {
	t.Helper()
	schema := table.Schema{
		{Name: "id", Type: table.Int},
		{Name: "dept", Type: table.String},
		{Name: "zeta", Type: table.Float},
		{Name: "alpha", Type: table.Float},
	}
	src := table.MustNew(schema)
	tgt := table.MustNew(schema)
	depts := []string{"a", "a", "b", "b", "a", "b", "a", "b"}
	for i, d := range depts {
		z := float64(100 + 10*i)
		al := float64(50 + 5*i)
		src.MustAppendRow(table.I(int64(i)), table.S(d), table.F(z), table.F(al))
		dz, da := 10.0, 0.0
		if d == "b" {
			dz, da = 0, 7
		}
		tgt.MustAppendRow(table.I(int64(i)), table.S(d), table.F(z+dz), table.F(al+da))
	}
	if err := src.SetKey("id"); err != nil {
		t.Fatal(err)
	}
	return src, tgt
}

// TestSummarizeAllAttrsSchemaOrder is the regression test for the Attrs
// ordering contract: "in schema order", not sorted (the historical
// sort.Strings would yield [alpha zeta] here).
func TestSummarizeAllAttrsSchemaOrder(t *testing.T) {
	src, tgt := multiPair(t)
	res, err := SummarizeAll(src, tgt, DefaultOptions("ignored"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"zeta", "alpha"}
	if len(res.Attrs) != len(want) {
		t.Fatalf("Attrs = %v, want %v", res.Attrs, want)
	}
	for i := range want {
		if res.Attrs[i] != want[i] {
			t.Fatalf("Attrs = %v, want schema order %v", res.Attrs, want)
		}
	}
}

// TestPairContextSharesAccelAcrossTargets asserts the amortization contract
// directly: summarizing both changed attributes of one pair through
// SummarizeAll constructs exactly one atom cache and one split index, and
// the context records one engine run per target.
func TestPairContextSharesAccelAcrossTargets(t *testing.T) {
	src, tgt := multiPair(t)
	a, err := diff.Align(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	c0, i0 := AccelBuilds()
	ctx, err := NewPairContext(a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SummarizeAllWith(a, DefaultOptions("ignored"), ctx.Summarize)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Attrs) != 2 {
		t.Fatalf("expected 2 summarized attributes, got %v", res.Attrs)
	}
	c1, i1 := AccelBuilds()
	if c1-c0 != 1 || i1-i0 != 1 {
		t.Errorf("accel builds across 2 targets: caches %d, indexes %d; want 1, 1", c1-c0, i1-i0)
	}
	st := ctx.Stats()
	if st.Runs != 2 {
		t.Errorf("context runs = %d, want 2", st.Runs)
	}
	if st.AtomMisses == 0 || st.AtomMisses != uint64(st.Atoms) {
		t.Errorf("each distinct atom should be materialized exactly once: misses=%d atoms=%d", st.AtomMisses, st.Atoms)
	}
}

// TestPairContextMatchesSummarizeAligned pins bit-identical results between
// a context-backed run and the classic per-run path.
func TestPairContextMatchesSummarizeAligned(t *testing.T) {
	src, tgt := multiPair(t)
	a, err := diff.Align(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewPairContext(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{"zeta", "alpha"} {
		opts := DefaultOptions(target)
		viaCtx, err := ctx.Summarize(opts)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := SummarizeAligned(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(viaCtx) != len(plain) {
			t.Fatalf("%s: %d vs %d summaries", target, len(viaCtx), len(plain))
		}
		for i := range plain {
			if viaCtx[i].Summary.Fingerprint() != plain[i].Summary.Fingerprint() {
				t.Errorf("%s: summary %d fingerprints differ", target, i)
			}
			if *viaCtx[i].Breakdown != *plain[i].Breakdown {
				t.Errorf("%s: summary %d breakdowns differ: %+v vs %+v", target, i, *viaCtx[i].Breakdown, *plain[i].Breakdown)
			}
		}
	}
}

// TestPairContextKeyCondAttrFallback: a condition pool naming the primary
// key is not covered by the pair index (keys are excluded); the engine must
// fall back to one per-run index rather than letting dtree rebuild one per
// candidate tree.
func TestPairContextKeyCondAttrFallback(t *testing.T) {
	src, tgt := multiPair(t)
	a, err := diff.Align(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewPairContext(a)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions("zeta")
	opts.CondAttrs = []string{"id", "dept"} // id is the key
	c0, i0 := AccelBuilds()
	viaCtx, err := ctx.Summarize(opts)
	if err != nil {
		t.Fatal(err)
	}
	c1, i1 := AccelBuilds()
	if c1-c0 != 0 {
		t.Errorf("atom cache rebuilt %d times, want reuse", c1-c0)
	}
	if i1-i0 != 1 {
		t.Errorf("fallback index builds = %d, want exactly 1 per run", i1-i0)
	}
	plain, err := SummarizeAligned(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(viaCtx) != len(plain) {
		t.Fatalf("fallback path diverged: %d vs %d summaries", len(viaCtx), len(plain))
	}
	for i := range plain {
		if viaCtx[i].Summary.Fingerprint() != plain[i].Summary.Fingerprint() || *viaCtx[i].Breakdown != *plain[i].Breakdown {
			t.Errorf("summary %d differs between fallback and classic path", i)
		}
	}
}

// TestNaNOnlyChangesNotReportedNoChange: when the target's only changes are
// NaN transitions (visible to the diff layer, unmodelable by the engine),
// the run must return an empty ranking — "changed, but nothing recoverable"
// — not the explicit NoChange result that would contradict the diff.
func TestNaNOnlyChangesNotReportedNoChange(t *testing.T) {
	schema := table.Schema{
		{Name: "id", Type: table.Int},
		{Name: "dept", Type: table.String},
		{Name: "v", Type: table.Float},
	}
	src := table.MustNew(schema)
	tgt := table.MustNew(schema)
	for i := 0; i < 8; i++ {
		x := float64(100 + i)
		y := x
		if i < 3 {
			y = math.NaN() // NaN transitions on rows 0..2, rest unchanged
		}
		d := "a"
		if i%2 == 0 {
			d = "b"
		}
		src.MustAppendRow(table.I(int64(i)), table.S(d), table.F(x))
		tgt.MustAppendRow(table.I(int64(i)), table.S(d), table.F(y))
	}
	if err := src.SetKey("id"); err != nil {
		t.Fatal(err)
	}
	ranked, err := Summarize(src, tgt, DefaultOptions("v"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 0 {
		t.Fatalf("NaN-only change step ranked %d summaries (first NoChange=%v); want empty", len(ranked), ranked[0].NoChange)
	}
	// A genuinely unchanged pair still yields the explicit NoChange result.
	ranked, err = Summarize(src, src.Clone(), DefaultOptions("v"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 1 || !ranked[0].NoChange {
		t.Fatalf("unchanged pair: got %d results, want the explicit NoChange", len(ranked))
	}
}
