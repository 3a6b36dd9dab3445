package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"charles/internal/diff"
	"charles/internal/eval"
	"charles/internal/gen"
	"charles/internal/model"
	"charles/internal/predicate"
	"charles/internal/score"
	"charles/internal/table"
)

func TestToyRecoveryTopSummary(t *testing.T) {
	src, tgt := gen.Toy()
	ranked, err := Summarize(src, tgt, DefaultOptions("bonus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) == 0 {
		t.Fatal("no summaries")
	}
	top := ranked[0]
	if top.Breakdown.Score < 0.85 {
		t.Errorf("top score = %v, want ≥ 0.85 (paper reports 89%%)", top.Breakdown.Score)
	}
	if top.Breakdown.Accuracy < 0.95 {
		t.Errorf("top accuracy = %v", top.Breakdown.Accuracy)
	}
	if top.Summary.Size() != 3 {
		t.Errorf("top summary size = %d, want 3 (R1-R3)", top.Summary.Size())
	}
	// Rule-level match against the planted policy.
	rm, err := eval.Rules(gen.ToyTruth(), top.Summary, src)
	if err != nil {
		t.Fatal(err)
	}
	if rm.MeanJaccard < 0.99 {
		t.Errorf("partition Jaccard = %v, want 1", rm.MeanJaccard)
	}
	// The PhD rule must be recovered verbatim.
	rendered := top.Summary.String()
	if !strings.Contains(rendered, "edu = PhD") || !strings.Contains(rendered, "1.05×bonus + 1000") {
		t.Errorf("R1 not recovered verbatim:\n%s", rendered)
	}
}

func TestRankingIsDeterministic(t *testing.T) {
	src, tgt := gen.Toy()
	a, err := Summarize(src, tgt, DefaultOptions("bonus"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Summarize(src, tgt, DefaultOptions("bonus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Summary.Fingerprint() != b[i].Summary.Fingerprint() {
			t.Fatalf("rank %d differs between runs", i)
		}
		if a[i].Breakdown.Score != b[i].Breakdown.Score {
			t.Fatalf("score %d differs between runs", i)
		}
	}
}

func TestRankingMonotoneAndDeduplicated(t *testing.T) {
	src, tgt := gen.Toy()
	opts := DefaultOptions("bonus")
	opts.TopK = 100
	ranked, err := Summarize(src, tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, r := range ranked {
		if i > 0 && r.Breakdown.Score > ranked[i-1].Breakdown.Score+1e-12 {
			t.Errorf("ranking not monotone at %d", i)
		}
		fp := r.Summary.Fingerprint()
		if seen[fp] {
			t.Errorf("duplicate summary at rank %d", i)
		}
		seen[fp] = true
	}
}

func TestNoChangeDataset(t *testing.T) {
	src, _ := gen.Toy()
	ranked, err := Summarize(src, src.Clone(), DefaultOptions("bonus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 1 || ranked[0].Summary.Size() != 0 {
		t.Fatalf("identical snapshots should yield the single empty summary, got %d summaries", len(ranked))
	}
	if ranked[0].Breakdown.Accuracy < 1-1e-9 {
		t.Errorf("empty summary on unchanged data accuracy = %v", ranked[0].Breakdown.Accuracy)
	}
}

func TestOptionValidation(t *testing.T) {
	src, tgt := gen.Toy()
	bad := []Options{
		{}, // no target
		func() Options { o := DefaultOptions("gen"); return o }(),   // categorical target
		func() Options { o := DefaultOptions("ghost"); return o }(), // unknown target
		func() Options { o := DefaultOptions("bonus"); o.Alpha = 2; return o }(),
		func() Options { o := DefaultOptions("bonus"); o.C = 0; return o }(),
		func() Options { o := DefaultOptions("bonus"); o.KMax = 0; return o }(),
		func() Options { o := DefaultOptions("bonus"); o.TopK = 0; return o }(),
		func() Options { o := DefaultOptions("bonus"); o.CondAttrs = []string{"ghost"}; return o }(),
		func() Options { o := DefaultOptions("bonus"); o.TranAttrs = []string{"edu"}; return o }(), // categorical tran
	}
	for i, o := range bad {
		if _, err := Summarize(src, tgt, o); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
}

func TestAlignmentErrorsPropagate(t *testing.T) {
	src, _ := gen.Toy()
	other := table.MustNew(table.Schema{{Name: "x", Type: table.Int}})
	if _, err := Summarize(src, other, DefaultOptions("bonus")); err == nil {
		t.Error("schema mismatch accepted")
	}
}

func TestMontgomeryRecovery(t *testing.T) {
	d, err := gen.Montgomery(7, 1200)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(d.Target)
	opts.CondAttrs = d.CondAttrs
	opts.TranAttrs = d.TranAttrs
	ranked, err := Summarize(d.Src, d.Tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := eval.Rules(d.Truth, ranked[0].Summary, d.Src)
	if err != nil {
		t.Fatal(err)
	}
	if rm.RuleF1 < 0.99 {
		t.Errorf("Montgomery rule F1 = %v, want 1.0", rm.RuleF1)
	}
	for _, m := range rm.Matches {
		if m.CoefErr > 0.01 {
			t.Errorf("rule %d coefficient error %v", m.TruthIdx, m.CoefErr)
		}
	}
}

func TestTopKHonored(t *testing.T) {
	src, tgt := gen.Toy()
	opts := DefaultOptions("bonus")
	opts.TopK = 3
	ranked, err := Summarize(src, tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 3 {
		t.Errorf("TopK=3 returned %d", len(ranked))
	}
}

// TestTopKDropsTheRest pins that an answer holds only its top K: the
// candidates ranked below it must not stay reachable through the answer's
// backing array, where the result cache and a maintained timeline would
// keep every candidate of the run alive.
func TestTopKDropsTheRest(t *testing.T) {
	src, tgt := gen.Toy()
	opts := DefaultOptions("bonus")
	opts.TopK = 100
	all, err := Summarize(src, tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.TopK = 3
	if len(all) <= opts.TopK {
		t.Fatalf("only %d candidates; the test needs more than TopK=%d", len(all), opts.TopK)
	}
	ranked, err := Summarize(src, tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ranked[len(ranked):cap(ranked)] {
		if r != (Ranked{}) {
			t.Fatalf("element %d past TopK is still set: %+v", len(ranked)+i, r)
		}
	}
}

func TestExplicitAttributePools(t *testing.T) {
	src, tgt := gen.Toy()
	opts := DefaultOptions("bonus")
	opts.CondAttrs = []string{"edu"}
	opts.TranAttrs = []string{"bonus"}
	ranked, err := Summarize(src, tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ranked {
		for _, ct := range r.Summary.CTs {
			for _, attr := range ct.Cond.Attrs() {
				if attr != "edu" {
					t.Errorf("condition uses %q outside the pool", attr)
				}
			}
			if ct.Tran.NoChange {
				continue
			}
			for i, in := range ct.Tran.Inputs {
				if ct.Tran.Coef[i] != 0 && in != "bonus" {
					t.Errorf("transformation uses %q outside the pool", in)
				}
			}
		}
	}
}

func TestCTsAreDisjointOnSource(t *testing.T) {
	src, tgt := gen.Toy()
	ranked, err := Summarize(src, tgt, DefaultOptions("bonus"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ranked[:3] {
		claimed := make([]bool, src.NumRows())
		for _, ct := range r.Summary.CTs {
			mask, err := ct.Cond.Mask(src)
			if err != nil {
				t.Fatal(err)
			}
			for i, m := range mask {
				if m && claimed[i] {
					// Overlap is allowed only under first-match semantics;
					// partitions from a single tree must be disjoint.
					t.Logf("row %d claimed twice in %s", i, r.Summary)
				}
				if m {
					claimed[i] = true
				}
			}
		}
	}
}

func TestSubsets(t *testing.T) {
	subsets := func(attrs []string, maxSize int) [][]string {
		return subsetsOf(attrs, maxSize, func(s []string) string { return fmt.Sprint(s) })
	}
	got := subsets([]string{"a", "b", "c"}, 2)
	if len(got) != 6 {
		t.Fatalf("subsets = %v", got)
	}
	// Sizes non-decreasing.
	for i := 1; i < len(got); i++ {
		if len(got[i]) < len(got[i-1]) {
			t.Error("subsets not ordered by size")
		}
	}
	if len(subsets([]string{"a"}, 5)) != 1 {
		t.Error("maxSize > n should clamp")
	}
	if subsets(nil, 2) != nil {
		t.Error("empty attr pool should give no subsets")
	}
}

// TestRankOrder pins rank, the one step where α enters the engine: per
// fingerprint the first instance is kept, ties in Score order by
// interpretability, then size, then fingerprint, and the answer holds its
// own breakdowns, blended at α, while the candidates stay α-free.
func TestRankOrder(t *testing.T) {
	sum := func(vals ...string) *model.Summary {
		s := &model.Summary{Target: "pay"}
		for _, v := range vals {
			s.CTs = append(s.CTs, model.CT{
				Cond: predicate.Predicate{Atoms: []predicate.Atom{predicate.StrAtom("g", predicate.Eq, v)}},
				Tran: model.Transformation{Target: "pay", Inputs: []string{"pay"}, Coef: []float64{2}},
			})
		}
		return s
	}
	bd := func(acc, interp float64) score.Breakdown {
		return score.Breakdown{Accuracy: acc, Interpretability: interp}
	}
	// Dyadic components, so the blends at α = 0.5 tie exactly.
	a, a2, b, c, d, e := sum("a"), sum("a"), sum("b"), sum("c", "x"), sum("d"), sum("e")
	units := [][]scored{
		{{a, bd(0.75, 0.25)}, {c, bd(0.625, 0.375)}, {b, bd(0.5, 0.5)}},
		{{a2, bd(0.75, 0.25)}, {d, bd(0.625, 0.375)}, {e, bd(0.5, 0.5)}},
	}
	be := []*model.Summary{b, e}
	if e.Fingerprint() < b.Fingerprint() {
		be = []*model.Summary{e, b}
	}
	for _, tc := range []struct {
		alpha float64
		want  []*model.Summary
	}{
		{0, []*model.Summary{be[0], be[1], d, c, a}},
		{0.5, []*model.Summary{be[0], be[1], d, c, a}},
		{1, []*model.Summary{a, d, c, be[0], be[1]}},
	} {
		for _, topK := range []int{1, 3, 10} {
			got := rank(units, tc.alpha, topK)
			want := tc.want[:min(topK, len(tc.want))]
			if len(got) != len(want) {
				t.Fatalf("alpha %v topK %d: %d summaries, want %d", tc.alpha, topK, len(got), len(want))
			}
			for i, r := range got {
				if r.Summary != want[i] {
					t.Errorf("alpha %v topK %d: #%d is %s, want %s", tc.alpha, topK, i, r.Summary, want[i])
				}
				if w := r.Breakdown.Blend(tc.alpha); r.Score() != w {
					t.Errorf("alpha %v topK %d: #%d scores %v, want %v", tc.alpha, topK, i, r.Score(), w)
				}
			}
		}
	}
	for _, unit := range units {
		for _, c := range unit {
			if c.bd.Score != 0 {
				t.Fatalf("rank wrote Score %v into a candidate", c.bd.Score)
			}
		}
	}
}

func TestNaNFeaturesSkipped(t *testing.T) {
	schema := table.Schema{
		{Name: "id", Type: table.Int},
		{Name: "grp", Type: table.String},
		{Name: "x", Type: table.Float},
		{Name: "pay", Type: table.Float},
	}
	src := table.MustNew(schema)
	tgt := table.MustNew(schema)
	for i := 1; i <= 30; i++ {
		pay := float64(1000 * i)
		xv := table.F(float64(i))
		if i%7 == 0 {
			xv = table.Null(table.Float) // nulls in a transformation attribute
		}
		src.MustAppendRow(table.I(int64(i)), table.S("a"), xv, table.F(pay))
		tgt.MustAppendRow(table.I(int64(i)), table.S("a"), xv, table.F(1.1*pay))
	}
	if err := src.SetKey("id"); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions("pay")
	opts.CondAttrs = []string{"grp"}
	opts.TranAttrs = []string{"pay", "x"}
	ranked, err := Summarize(src, tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) == 0 {
		t.Fatal("no summaries despite usable rows")
	}
	if ranked[0].Breakdown.Accuracy < 0.9 {
		t.Errorf("accuracy with null features = %v", ranked[0].Breakdown.Accuracy)
	}
}

func TestIsIdentity(t *testing.T) {
	if !isIdentity(identityLike("pay"), "pay") {
		t.Error("1×pay + 0 should be identity")
	}
	notID := identityLike("pay")
	notID.Intercept = 5
	if isIdentity(notID, "pay") {
		t.Error("intercept 5 is not identity")
	}
	other := identityLike("other")
	if isIdentity(other, "pay") {
		t.Error("coefficient on another attribute is not identity")
	}
}

func identityLike(attr string) model.Transformation {
	return model.Transformation{Target: "pay", Inputs: []string{attr}, Coef: []float64{1}}
}

func TestRefineClustersConvergesToAffineGroups(t *testing.T) {
	// Two affine groups that 1-D residual clustering would muddle: wide x
	// range with crossing lines.
	n := 200
	rows := make([]int, n)
	fm := &featMat{vals: make([]float64, n), w: 1, ok: make([]bool, n)}
	newVals := make([]float64, n)
	truth := make([]int, n)
	for i := 0; i < n; i++ {
		rows[i] = i
		x := float64(1000 + i*100)
		fm.vals[i] = x
		fm.ok[i] = true
		if i%2 == 0 {
			newVals[i] = 1.02 * x
			truth[i] = 0
		} else {
			newVals[i] = 1.05*x - 500
			truth[i] = 1
		}
	}
	// Deliberately bad seed labels: split by index half.
	labels := make([]int, n)
	for i := range labels {
		if i < n/2 {
			labels[i] = 0
		} else {
			labels[i] = 1
		}
	}
	refined := refineClusters(labels, rows, fm, newVals, 2)
	// All rows of one true group must share a label.
	label0 := refined[0]
	label1 := refined[1]
	if label0 == label1 {
		t.Fatal("refinement failed to separate groups")
	}
	for i := range refined {
		want := label0
		if truth[i] == 1 {
			want = label1
		}
		if refined[i] != want {
			t.Fatalf("row %d refined to %d, want %d", i, refined[i], want)
		}
	}
}

func TestScoreAccessor(t *testing.T) {
	src, tgt := gen.Toy()
	ranked, err := Summarize(src, tgt, DefaultOptions("bonus"))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ranked[0].Score()-ranked[0].Breakdown.Score) > 1e-15 {
		t.Error("Score() accessor disagrees with breakdown")
	}
}

func TestSummarizeAlignedSharesAlignment(t *testing.T) {
	src, tgt := gen.Toy()
	a, err := diff.Align(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := SummarizeAligned(a, DefaultOptions("bonus"))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Summarize(src, tgt, DefaultOptions("bonus"))
	if err != nil {
		t.Fatal(err)
	}
	if r1[0].Summary.Fingerprint() != r2[0].Summary.Fingerprint() {
		t.Error("aligned and unaligned paths disagree")
	}
}
