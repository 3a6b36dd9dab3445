package dtree

import (
	"math/rand"
	"sort"
	"testing"

	"charles/internal/predicate"
	"charles/internal/table"
)

// gini computes the Gini impurity of the label distribution over rows.
func gini(labels []int, rows []int) float64 {
	if len(rows) == 0 {
		return 0
	}
	counts := labelCounts(labels, rows)
	n := float64(len(rows))
	g := 1.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		g -= p * p
	}
	return g
}

// naiveBestSplit is the historical reference implementation: enumerate
// candidate atoms per attribute, re-partition the rows per candidate, and
// keep the largest Gini gain. The histogram-based bestSplit must select the
// same atom with the same gain.
func naiveBestSplit(t *table.Table, attrs []string, labels []int, rows []int) (predicate.Atom, float64, error) {
	base := gini(labels, rows)
	var best predicate.Atom
	bestGain := -1.0
	for _, attr := range attrs {
		col := t.MustColumn(attr)
		var cands []predicate.Atom
		if col.Type.Numeric() {
			vals := map[float64]bool{}
			for _, r := range rows {
				if col.IsNull(r) {
					continue
				}
				vals[col.Float(r)] = true
			}
			distinct := make([]float64, 0, len(vals))
			for v := range vals {
				distinct = append(distinct, v)
			}
			sort.Float64s(distinct)
			for _, p := range boundaryPairs(distinct) {
				cands = append(cands, predicate.NumAtom(col.Name, predicate.Lt, NiceThreshold(p[0], p[1])))
			}
		} else {
			seen := map[string]bool{}
			for _, r := range rows {
				if col.IsNull(r) {
					continue
				}
				v := col.Str(r)
				if !seen[v] {
					seen[v] = true
					cands = append(cands, predicate.StrAtom(col.Name, predicate.Eq, v))
				}
			}
			sort.Slice(cands, func(i, j int) bool { return cands[i].Str < cands[j].Str })
		}
		for _, atom := range cands {
			var yes, no []int
			for _, r := range rows {
				ok, err := atom.Eval(t, r)
				if err != nil {
					return predicate.Atom{}, 0, err
				}
				if ok {
					yes = append(yes, r)
				} else {
					no = append(no, r)
				}
			}
			if len(yes) == 0 || len(no) == 0 {
				continue
			}
			n := float64(len(rows))
			g := base - float64(len(yes))/n*gini(labels, yes) - float64(len(no))/n*gini(labels, no)
			if g > bestGain {
				bestGain, best = g, atom
			}
		}
	}
	if bestGain < 0 {
		return predicate.Atom{}, 0, nil
	}
	return best, bestGain, nil
}

func randomSplitTable(rng *rand.Rand, n int) *table.Table {
	t := table.MustNew(table.Schema{
		{Name: "num", Type: table.Float},
		{Name: "cnt", Type: table.Int},
		{Name: "cat", Type: table.String},
	})
	cats := []string{"a", "b", "c", "d", "e"}
	for r := 0; r < n; r++ {
		vals := []table.Value{
			table.F(float64(rng.Intn(40)) / 4),
			table.I(int64(rng.Intn(6))),
			table.S(cats[rng.Intn(len(cats))]),
		}
		for c := range vals {
			if rng.Float64() < 0.08 {
				vals[c] = table.Null(t.Schema()[c].Type)
			}
		}
		t.MustAppendRow(vals...)
	}
	return t
}

// TestHistogramSplitMatchesNaive locks the histogram sweep to the reference
// scan: same winning atom, same gain, on random tables with nulls and ties.
func TestHistogramSplitMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	attrs := []string{"num", "cnt", "cat"}
	for trial := 0; trial < 40; trial++ {
		n := 10 + rng.Intn(150)
		tbl := randomSplitTable(rng, n)
		labels := make([]int, n)
		nLabels := 2 + rng.Intn(3)
		for i := range labels {
			labels[i] = rng.Intn(nLabels)
		}
		idx, err := NewIndex(tbl, attrs)
		if err != nil {
			t.Fatal(err)
		}
		// Random row subsets simulate interior tree nodes.
		for sub := 0; sub < 5; sub++ {
			var rows []int
			for r := 0; r < n; r++ {
				if sub == 0 || rng.Float64() < 0.6 {
					rows = append(rows, r)
				}
			}
			if len(rows) == 0 {
				continue
			}
			b := &builder{t: tbl, attrs: attrs, labels: labels, opts: Options{}.withDefaults(), idx: idx, nLabels: nLabels}
			b.initScratch()
			gotAtom, gotGain, err := b.bestSplit(rows)
			b.releaseScratch()
			if err != nil {
				t.Fatal(err)
			}
			wantAtom, wantGain, err := naiveBestSplit(tbl, attrs, labels, rows)
			if err != nil {
				t.Fatal(err)
			}
			if gotAtom.String() != wantAtom.String() || gotGain != wantGain {
				t.Fatalf("trial %d sub %d: histogram (%v, %v) != naive (%v, %v)",
					trial, sub, gotAtom, gotGain, wantAtom, wantGain)
			}
		}
	}
}

// TestBuildWithSharedIndexMatchesFresh ensures a Build through a shared
// Index produces the identical tree as one that derives its own.
func TestBuildWithSharedIndexMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	attrs := []string{"num", "cnt", "cat"}
	for trial := 0; trial < 10; trial++ {
		n := 30 + rng.Intn(100)
		tbl := randomSplitTable(rng, n)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(3)
		}
		idx, err := NewIndex(tbl, attrs)
		if err != nil {
			t.Fatal(err)
		}
		shared, err := Build(tbl, attrs, labels, nil, Options{MaxDepth: 4, Index: idx})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Build(tbl, attrs, labels, nil, Options{MaxDepth: 4})
		if err != nil {
			t.Fatal(err)
		}
		sl, fl := shared.Leaves(), fresh.Leaves()
		if len(sl) != len(fl) {
			t.Fatalf("trial %d: %d leaves vs %d", trial, len(sl), len(fl))
		}
		for i := range sl {
			if !sl[i].Pred.Equal(fl[i].Pred) || sl[i].Label != fl[i].Label || len(sl[i].Rows) != len(fl[i].Rows) {
				t.Fatalf("trial %d leaf %d: %v (%d) vs %v (%d)", trial, i, sl[i].Pred, sl[i].Label, fl[i].Pred, fl[i].Label)
			}
		}
	}
}
