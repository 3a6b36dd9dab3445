// Package dtree implements a small CART-style decision-tree classifier used
// by ChARLES to convert k-means cluster assignments into human-readable
// conditions: the tree is trained over the *condition attributes* with the
// cluster id as the class label, and each leaf then yields a conjunctive
// predicate describing one data partition.
//
// Splits are binary: categorical attributes split one-vs-rest (attr = v),
// numeric attributes split on thresholds (attr < t) chosen at "nice" values
// between adjacent distinct data points (25, not 23.796), supporting the
// paper's normality preference.
//
// Callers building many trees over one table (the engine: one per
// candidate summary) share an Index — per-attribute sorted values and
// dictionary codes precomputed once — via Options.Index; split search then
// scores candidates from label histograms instead of re-partitioning the
// node's rows per candidate atom.
package dtree

import (
	"fmt"
	"math"
	"sort"

	"charles/internal/predicate"
	"charles/internal/table"
)

// Options configure tree induction.
type Options struct {
	// MaxDepth bounds the number of atoms in any leaf predicate; it
	// corresponds to the user parameter c (max condition attributes).
	MaxDepth int
	// MinLeaf is the minimum rows per leaf (default 1).
	MinLeaf int
	// MinGain is the minimum Gini impurity decrease to accept a split.
	MinGain float64
	// Index is an optional precomputed split index covering the table and
	// attributes (see NewIndex). Callers that Build many trees over one
	// table — the engine builds one per (C, T, k) candidate — share a
	// single Index; when nil (or not covering), Build derives one itself.
	Index *Index
}

func (o Options) withDefaults() Options {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 3
	}
	if o.MinLeaf <= 0 {
		o.MinLeaf = 1
	}
	if o.MinGain <= 0 {
		o.MinGain = 1e-9
	}
	return o
}

// Tree is a fitted decision tree over a fixed table.
type Tree struct {
	root  *node
	attrs []string
}

type node struct {
	// Internal nodes:
	split predicate.Atom
	yes   *node // rows where split holds
	no    *node

	// Leaves:
	leaf  bool
	label int
	rows  []int
}

// Leaf describes one induced partition.
type Leaf struct {
	Pred  predicate.Predicate // conjunction from root to leaf
	Label int                 // majority cluster id
	Rows  []int               // training rows reaching the leaf
}

// Build fits a tree on rows `rows` of t (nil = all rows), using only the
// given attributes for splits and labels[r] as the class of row r.
func Build(t *table.Table, attrs []string, labels []int, rows []int, opts Options) (*Tree, error) {
	if len(labels) != t.NumRows() {
		return nil, fmt.Errorf("dtree: %d labels for %d rows", len(labels), t.NumRows())
	}
	for _, a := range attrs {
		if !t.HasColumn(a) {
			return nil, fmt.Errorf("dtree: unknown attribute %q", a)
		}
	}
	if rows == nil {
		rows = make([]int, t.NumRows())
		for i := range rows {
			rows[i] = i
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("dtree: no rows")
	}
	opts = opts.withDefaults()
	idx := opts.Index
	if !idx.covers(t, attrs) {
		var err error
		idx, err = NewIndex(t, attrs)
		if err != nil {
			return nil, err
		}
	}
	nLabels := 0
	for _, l := range labels {
		if l >= nLabels {
			nLabels = l + 1
		}
	}
	b := &builder{t: t, attrs: attrs, labels: labels, opts: opts, idx: idx, nLabels: nLabels}
	b.initScratch()
	root, err := b.grow(rows, 0)
	b.releaseScratch()
	if err != nil {
		return nil, err
	}
	return &Tree{root: root, attrs: attrs}, nil
}

type builder struct {
	t       *table.Table
	attrs   []string
	labels  []int
	opts    Options
	idx     *Index
	nLabels int
	scratch *buildScratch
}

func (b *builder) grow(rows []int, depth int) (*node, error) {
	if depth >= b.opts.MaxDepth || len(rows) < 2*b.opts.MinLeaf || pure(b.labels, rows) {
		return b.makeLeaf(rows), nil
	}
	atom, gain, err := b.bestSplit(rows)
	if err != nil {
		return nil, err
	}
	if gain < b.opts.MinGain {
		return b.makeLeaf(rows), nil
	}
	yesRows, noRows, err := b.splitRows(atom, rows)
	if err != nil {
		return nil, err
	}
	if len(yesRows) < b.opts.MinLeaf || len(noRows) < b.opts.MinLeaf {
		return b.makeLeaf(rows), nil
	}
	yes, err := b.grow(yesRows, depth+1)
	if err != nil {
		return nil, err
	}
	no, err := b.grow(noRows, depth+1)
	if err != nil {
		return nil, err
	}
	return &node{split: atom, yes: yes, no: no}, nil
}

func (b *builder) makeLeaf(rows []int) *node {
	return &node{leaf: true, label: majority(b.labels, rows), rows: rows}
}

// maxNumericThresholds caps the split candidates per numeric attribute.
// A high-cardinality column (salaries over 50k rows) would otherwise
// contribute tens of thousands of candidates; quantile-spaced boundaries
// preserve the resolution that matters (where the data mass is) at a fixed
// budget.
const maxNumericThresholds = 32

// boundaryPairs returns adjacent-value pairs to place thresholds between.
// All gaps are used when the column has few distinct values; above the cap,
// quantile-spaced gaps are selected (deduplicated, order preserved).
func boundaryPairs(distinct []float64) [][2]float64 {
	gaps := len(distinct) - 1
	if gaps <= 0 {
		return nil
	}
	if gaps <= maxNumericThresholds {
		out := make([][2]float64, 0, gaps)
		for i := 0; i+1 < len(distinct); i++ {
			out = append(out, [2]float64{distinct[i], distinct[i+1]})
		}
		return out
	}
	out := make([][2]float64, 0, maxNumericThresholds)
	prev := -1
	for j := 0; j < maxNumericThresholds; j++ {
		i := (j + 1) * gaps / (maxNumericThresholds + 1)
		if i == prev || i+1 >= len(distinct) {
			continue
		}
		prev = i
		out = append(out, [2]float64{distinct[i], distinct[i+1]})
	}
	return out
}

// Predict returns the label the tree assigns to row r of t.
func (tr *Tree) Predict(t *table.Table, r int) (int, error) {
	n := tr.root
	for !n.leaf {
		ok, err := n.split.Eval(t, r)
		if err != nil {
			return 0, err
		}
		if ok {
			n = n.yes
		} else {
			n = n.no
		}
	}
	return n.label, nil
}

// Leaves returns every leaf with its root-to-leaf predicate (normalized).
// Leaves are ordered by descending row count, so the dominant partition
// comes first.
func (tr *Tree) Leaves() []Leaf {
	var out []Leaf
	var walk func(n *node, p predicate.Predicate)
	walk = func(n *node, p predicate.Predicate) {
		if n.leaf {
			out = append(out, Leaf{Pred: p.Normalize(), Label: n.label, Rows: n.rows})
			return
		}
		walk(n.yes, p.And(n.split))
		walk(n.no, p.And(negate(n.split)))
	}
	walk(tr.root, predicate.True())
	sort.SliceStable(out, func(i, j int) bool { return len(out[i].Rows) > len(out[j].Rows) })
	return out
}

// Depth returns the maximum depth of the tree (0 for a single leaf).
func (tr *Tree) Depth() int {
	var d func(n *node) int
	d = func(n *node) int {
		if n.leaf {
			return 0
		}
		dy, dn := d(n.yes), d(n.no)
		if dy > dn {
			return dy + 1
		}
		return dn + 1
	}
	return d(tr.root)
}

// negate inverts an atom: =↔≠, <↔≥.
func negate(a predicate.Atom) predicate.Atom {
	n := a
	switch a.Op {
	case predicate.Eq:
		n.Op = predicate.Ne
	case predicate.Ne:
		n.Op = predicate.Eq
	case predicate.Lt:
		n.Op = predicate.Ge
	case predicate.Ge:
		n.Op = predicate.Lt
	}
	return n
}

// pure reports whether all rows share one label.
func pure(labels []int, rows []int) bool {
	if len(rows) == 0 {
		return true
	}
	first := labels[rows[0]]
	for _, r := range rows[1:] {
		if labels[r] != first {
			return false
		}
	}
	return true
}

// labelCounts tallies labels over rows into a dense slice, so that every
// aggregation below iterates in label order — map iteration would make
// floating-point sums order-dependent and the tree nondeterministic across
// runs when two splits tie exactly.
func labelCounts(labels []int, rows []int) []int {
	maxL := 0
	for _, r := range rows {
		if labels[r] > maxL {
			maxL = labels[r]
		}
	}
	counts := make([]int, maxL+1)
	for _, r := range rows {
		counts[labels[r]]++
	}
	return counts
}

// majority returns the most frequent label (smallest id wins ties).
func majority(labels []int, rows []int) int {
	if len(rows) == 0 {
		return 0
	}
	counts := labelCounts(labels, rows)
	best, bestN := 0, -1
	for l, n := range counts {
		if n > bestN {
			best, bestN = l, n
		}
	}
	return best
}

// NiceThreshold picks a human-friendly split point in the half-open interval
// (lo, hi]: the roundest value that still separates lo from hi under the
// predicate `x < threshold`. It prefers integers and short decimals; when no
// round value fits, it falls back to hi (which always separates).
func NiceThreshold(lo, hi float64) float64 {
	if !(lo < hi) {
		return hi
	}
	mid := (lo + hi) / 2
	// Candidates from coarsest significant rounding of the midpoint.
	for digits := 1; digits <= 12; digits++ {
		r := roundSig(mid, digits)
		if lo < r && r <= hi {
			return r
		}
		// Also try the value just above lo at this granularity.
		step := math.Pow(10, math.Floor(math.Log10(math.Max(math.Abs(mid), 1e-12)))-float64(digits-1))
		up := math.Ceil(lo/step) * step
		if up == lo {
			up += step
		}
		if lo < up && up <= hi {
			return up
		}
	}
	return hi
}

// roundSig rounds to significant digits, dividing by exact positive powers
// of ten for large magnitudes (10⁻⁵ is inexact in binary; 10⁵ is exact).
func roundSig(x float64, digits int) float64 {
	if x == 0 {
		return 0
	}
	p := float64(digits-1) - math.Floor(math.Log10(math.Abs(x)))
	if p >= 0 {
		mag := math.Pow(10, p)
		return math.Round(x*mag) / mag
	}
	div := math.Pow(10, -p)
	return math.Round(x/div) * div
}
