package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"charles/internal/diff"
	"charles/internal/eval"
	"charles/internal/gen"
	"charles/internal/table"
)

// pairSchema builds a minimal keyed snapshot pair for failure injection.
func pair(t *testing.T, build func(src, tgt *table.Table)) (*table.Table, *table.Table) {
	t.Helper()
	schema := table.Schema{
		{Name: "id", Type: table.Int},
		{Name: "grp", Type: table.String},
		{Name: "pay", Type: table.Float},
	}
	src := table.MustNew(schema)
	tgt := table.MustNew(schema)
	build(src, tgt)
	if err := src.SetKey("id"); err != nil {
		t.Fatal(err)
	}
	return src, tgt
}

func TestSingleRowTable(t *testing.T) {
	src, tgt := pair(t, func(src, tgt *table.Table) {
		src.MustAppendRow(table.I(1), table.S("a"), table.F(100))
		tgt.MustAppendRow(table.I(1), table.S("a"), table.F(110))
	})
	opts := DefaultOptions("pay")
	opts.CondAttrs = []string{"grp"}
	opts.TranAttrs = []string{"pay"}
	ranked, err := Summarize(src, tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) == 0 {
		t.Fatal("single-row pair should still produce a summary")
	}
	// The only explanation possible is a shift/scale of the single row.
	if ranked[0].Breakdown.Accuracy < 0.99 {
		t.Errorf("single-row accuracy = %v", ranked[0].Breakdown.Accuracy)
	}
}

func TestAllTargetValuesNull(t *testing.T) {
	src, tgt := pair(t, func(src, tgt *table.Table) {
		for i := 1; i <= 5; i++ {
			src.MustAppendRow(table.I(int64(i)), table.S("a"), table.Null(table.Float))
			tgt.MustAppendRow(table.I(int64(i)), table.S("a"), table.Null(table.Float))
		}
	})
	opts := DefaultOptions("pay")
	opts.CondAttrs = []string{"grp"}
	opts.TranAttrs = []string{"pay"}
	ranked, err := Summarize(src, tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing changed (null → null): the empty summary.
	if len(ranked) != 1 || ranked[0].Summary.Size() != 0 {
		t.Errorf("all-null target should give the empty summary, got %d summaries", len(ranked))
	}
}

func TestNullBecomesValue(t *testing.T) {
	src, tgt := pair(t, func(src, tgt *table.Table) {
		for i := 1; i <= 6; i++ {
			src.MustAppendRow(table.I(int64(i)), table.S("a"), table.Null(table.Float))
			tgt.MustAppendRow(table.I(int64(i)), table.S("a"), table.F(float64(i*100)))
		}
	})
	opts := DefaultOptions("pay")
	opts.CondAttrs = []string{"grp"}
	opts.TranAttrs = []string{"pay"}
	// Null → value changes have no numeric old value; the engine must not
	// crash, and with no usable (finite) changed rows it reports no-change
	// or a degenerate summary rather than NaN scores.
	ranked, err := Summarize(src, tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ranked {
		if r.Breakdown.Score != r.Breakdown.Score { // NaN check
			t.Fatal("NaN score leaked out")
		}
	}
}

func TestConstantTargetShift(t *testing.T) {
	src, tgt := pair(t, func(src, tgt *table.Table) {
		for i := 1; i <= 8; i++ {
			src.MustAppendRow(table.I(int64(i)), table.S("a"), table.F(5000))
			tgt.MustAppendRow(table.I(int64(i)), table.S("a"), table.F(5500))
		}
	})
	opts := DefaultOptions("pay")
	opts.CondAttrs = []string{"grp"}
	opts.TranAttrs = []string{"pay"}
	ranked, err := Summarize(src, tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Constant source: slope unidentifiable (rank deficient); the ridge /
	// shift fallbacks must still explain the +500 exactly.
	if ranked[0].Breakdown.Accuracy < 0.999 {
		t.Errorf("constant-shift accuracy = %v\n%s", ranked[0].Breakdown.Accuracy, ranked[0].Summary)
	}
}

func TestDuplicateKeysRejected(t *testing.T) {
	src, tgt := pair(t, func(src, tgt *table.Table) {
		src.MustAppendRow(table.I(1), table.S("a"), table.F(1))
		src.MustAppendRow(table.I(1), table.S("a"), table.F(2))
		tgt.MustAppendRow(table.I(1), table.S("a"), table.F(1))
		tgt.MustAppendRow(table.I(1), table.S("a"), table.F(2))
	})
	if _, err := Summarize(src, tgt, DefaultOptions("pay")); err == nil {
		t.Error("duplicate primary keys accepted")
	}
}

// TestInfiniteTargetCellsAreSkipped: a target cell that becomes ±Inf cannot
// be clustered or fitted, so it is left out like a NaN cell. With one
// infinite bonus the toy data still summarizes with finite scores; with
// every bonus infinite nothing is left to summarize, which is an empty
// ranking, not an error.
func TestInfiniteTargetCellsAreSkipped(t *testing.T) {
	for _, inf := range []float64{math.Inf(1), math.Inf(-1)} {
		src, tgt := gen.Toy()
		bonus := tgt.MustColumn("bonus")
		if err := bonus.Set(0, table.F(inf)); err != nil {
			t.Fatal(err)
		}
		ranked, err := Summarize(src, tgt, DefaultOptions("bonus"))
		if err != nil {
			t.Fatalf("bonus %v: %v", inf, err)
		}
		if len(ranked) == 0 {
			t.Fatalf("bonus %v: nothing ranked", inf)
		}
		for _, r := range ranked {
			if s := r.Breakdown.Score; math.IsNaN(s) || math.IsInf(s, 0) {
				t.Errorf("bonus %v: non-finite score %v", inf, s)
			}
		}
		for r := 0; r < tgt.NumRows(); r++ {
			if err := bonus.Set(r, table.F(inf)); err != nil {
				t.Fatal(err)
			}
		}
		ranked, err = Summarize(src, tgt, DefaultOptions("bonus"))
		if err != nil || len(ranked) != 0 {
			t.Errorf("every bonus %v: %d ranked, err %v; want an empty ranking and no error", inf, len(ranked), err)
		}
	}
}

func TestCategoricalOnlyConditionPoolWithNumericTarget(t *testing.T) {
	// All condition attributes categorical, target numeric: the standard
	// case, but with a condition pool that contains the key accidentally
	// excluded — i.e. pool = {grp} only.
	src, tgt := pair(t, func(src, tgt *table.Table) {
		groups := []string{"a", "a", "b", "b", "c", "c"}
		for i, g := range groups {
			pay := float64(1000 * (i + 1))
			src.MustAppendRow(table.I(int64(i+1)), table.S(g), table.F(pay))
			newPay := pay
			if g == "a" {
				newPay = pay * 1.1
			}
			tgt.MustAppendRow(table.I(int64(i+1)), table.S(g), table.F(newPay))
		}
	})
	opts := DefaultOptions("pay")
	opts.CondAttrs = []string{"grp"}
	opts.TranAttrs = []string{"pay"}
	ranked, err := Summarize(src, tgt, opts)
	if err != nil {
		t.Fatal(err)
	}
	top := ranked[0]
	if top.Summary.Size() != 1 {
		t.Fatalf("want a single CT for the single-group policy, got:\n%s", top.Summary)
	}
	if got := top.Summary.CTs[0].Cond.String(); got != "grp = a" {
		t.Errorf("condition = %q, want grp = a", got)
	}
}

// TestPlantedRecoveryProperty: across random generator configurations, the
// engine must recover the planted policy's partitions with high fidelity
// (no noise ⇒ rule F1 ≥ threshold) and must never error or emit NaNs.
func TestPlantedRecoveryProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep")
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := gen.PlantedConfig{
			N:             300 + r.Intn(400),
			Seed:          seed,
			Rules:         1 + r.Intn(3),
			RuleDepth:     1 + r.Intn(2),
			UnchangedFrac: float64(r.Intn(5)) / 10,
		}
		d, err := gen.Planted(cfg)
		if err != nil {
			return false
		}
		opts := DefaultOptions(d.Target)
		opts.CondAttrs = d.CondAttrs
		opts.TranAttrs = d.TranAttrs
		ranked, err := Summarize(d.Src, d.Tgt, opts)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		top := ranked[0]
		if top.Breakdown.Score != top.Breakdown.Score {
			t.Logf("seed %d: NaN score", seed)
			return false
		}
		rm, err := eval.Rules(d.Truth, top.Summary, d.Src)
		if err != nil {
			return false
		}
		if rm.MeanJaccard < 0.85 {
			t.Logf("seed %d (cfg %+v): jaccard %v\ntruth:\n%s\ngot:\n%s",
				seed, cfg, rm.MeanJaccard, d.Truth, top.Summary)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(77))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestNullTransitionsFitFiniteCTs runs every changed numeric target of
// projected gen.MutateChain lineages, whose steps move cells to and from
// null. A row whose target is null on either side has nothing to fit, so
// every ranked CT must have finite coefficients, intercept and MAE: one
// NaN row in a partition's fit would make its intercept and MAE NaN, and
// the scorer, which skips NaN predictions, would rate that CT accurate.
func TestNullTransitionsFitFiniteCTs(t *testing.T) {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	var answers, nullTransitions int
	for seed := int64(1); seed <= 12; seed++ {
		snaps, err := gen.MutateChain(gen.FuzzConfig{N: 20, Steps: 6, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		// Project onto the ids every version shares: a step needs a fixed
		// entity set.
		shared := map[string]int{}
		for _, snap := range snaps {
			for r := 0; r < snap.NumRows(); r++ {
				shared[snap.MustColumn("id").Value(r).String()]++
			}
		}
		for i, snap := range snaps {
			keep := make([]bool, snap.NumRows())
			for r := range keep {
				keep[r] = shared[snap.MustColumn("id").Value(r).String()] == len(snaps)
			}
			if snaps[i], err = snap.Filter(keep); err != nil {
				t.Fatal(err)
			}
			if err := snaps[i].SetKey("id"); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i+1 < len(snaps); i++ {
			a, err := diff.Align(snaps[i], snaps[i+1])
			if err != nil {
				t.Fatal(err)
			}
			res, err := SummarizeAll(snaps[i], snaps[i+1], DefaultOptions(""))
			if err != nil {
				t.Fatal(err)
			}
			for _, attr := range res.Attrs {
				oldVals, newVals, err := a.Delta(attr)
				if err != nil {
					t.Fatal(err)
				}
				changed, err := a.ChangedMask(attr, ChangeTol)
				if err != nil {
					t.Fatal(err)
				}
				for r, ch := range changed {
					if ch && (!finite(oldVals[r]) || !finite(newVals[r])) {
						nullTransitions++
					}
				}
				answers++
				for rank, r := range res.ByAttr[attr] {
					for _, ct := range r.Summary.CTs {
						ok := finite(ct.Tran.Intercept) && finite(ct.MAE)
						for _, c := range ct.Tran.Coef {
							ok = ok && finite(c)
						}
						if !ok {
							t.Errorf("seed %d, step %d, %s: #%d ranks a non-finite CT %s (MAE %v)", seed, i, attr, rank+1, ct, ct.MAE)
						}
					}
				}
			}
		}
	}
	if answers == 0 || nullTransitions == 0 {
		t.Fatalf("%d answers over %d null transitions: the lineages no longer test the fit", answers, nullTransitions)
	}
}
