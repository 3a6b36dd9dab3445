// Package diff aligns two snapshots of a relational table by primary key and
// extracts cell-level changes. It enforces the ChARLES preconditions —
// identical schemas, identical entity sets (no inserts or deletes) — and
// provides the syntactic-change primitives (changed-cell lists, update
// distance) that the semantic layers and the baselines build on. Result and
// ResultFromPair define the raw change list between two snapshots (removed
// and inserted entities plus every modified cell): the one answer to a
// change query, whoever asks it.
package diff

import (
	"errors"
	"fmt"
	"math"

	"charles/internal/table"
)

// Errors reported by Align.
var (
	ErrSchemaMismatch = errors.New("diff: source and target schemas differ")
	ErrNoKey          = errors.New("diff: no primary key set on source table")
	ErrEntityMismatch = errors.New("diff: source and target contain different entities")
)

// schemaMismatch returns nil when the schemas agree, and otherwise
// ErrSchemaMismatch saying what differs first: the two column counts, or
// the first column whose name or type differs.
func schemaMismatch(src, tgt table.Schema) error {
	if len(src) != len(tgt) {
		return fmt.Errorf("%w: %d source columns vs %d target columns", ErrSchemaMismatch, len(src), len(tgt))
	}
	for i, f := range src {
		switch g := tgt[i]; {
		case f.Name != g.Name:
			return fmt.Errorf("%w: column %d is %q in the source and %q in the target", ErrSchemaMismatch, i, f.Name, g.Name)
		case f.Type != g.Type:
			return fmt.Errorf("%w: column %q is %s in the source and %s in the target", ErrSchemaMismatch, f.Name, f.Type, g.Type)
		}
	}
	return nil
}

// Aligned is a pair of snapshots whose rows have been matched by primary
// key. Row r of Source corresponds to row TgtRow[r] of Target.
type Aligned struct {
	Source *table.Table
	Target *table.Table
	TgtRow []int // source row -> target row
}

// Align validates the snapshot pair and matches rows by primary key. The key
// declared on src is used (and must be declared; tgt needs no declaration of
// its own). Every source entity must appear in the target and vice versa.
//
// Align never mutates its inputs: the target is matched through a locally
// built key index, so the same tables can be aligned from any number of
// goroutines concurrently (the parallel timeline aligns a shared middle
// snapshot as the target of one step and the source of the next).
func Align(src, tgt *table.Table) (*Aligned, error) {
	if err := schemaMismatch(src.Schema(), tgt.Schema()); err != nil {
		return nil, err
	}
	key := src.Key()
	if len(key) == 0 {
		return nil, ErrNoKey
	}
	if src.NumRows() != tgt.NumRows() {
		return nil, fmt.Errorf("%w: %d source rows vs %d target rows", ErrEntityMismatch, src.NumRows(), tgt.NumRows())
	}
	tindex, err := tgt.KeyIndexFor(key)
	if err != nil {
		return nil, err
	}
	m := make([]int, src.NumRows())
	for r := 0; r < src.NumRows(); r++ {
		k, err := src.KeyOf(r)
		if err != nil {
			return nil, err
		}
		tr, ok := tindex[k]
		if !ok {
			return nil, fmt.Errorf("%w: key %q missing from target", ErrEntityMismatch, k)
		}
		m[r] = tr
	}
	return &Aligned{Source: src, Target: tgt, TgtRow: m}, nil
}

// RowMatch is the outcome of matching two row sets by encoded primary key:
// the row-level join every tolerant diff and the store's delta encoder are
// built on. Indices refer to positions in the key slices given to MatchKeys
// (equivalently: row numbers of the snapshots the keys were encoded from).
type RowMatch struct {
	// Pairs lists (src, tgt) index pairs for keys present on both sides,
	// in src order.
	Pairs [][2]int
	// SrcOnly lists indices whose key appears only on the source side
	// (deleted rows), in src order.
	SrcOnly []int
	// TgtOnly lists indices whose key appears only on the target side
	// (inserted rows), in tgt order.
	TgtOnly []int
}

// MatchKeys joins two encoded-key sequences (table.KeyOf / table.KeyFor
// encoding) into pairs, deletions, and insertions. Duplicate keys within one
// side are rejected — a relation with a duplicated primary key cannot be
// row-matched meaningfully. The match is purely positional and never touches
// a table, so callers may run it over raw CSV rows, cached key slices, or
// anything else that can produce the encoded keys.
func MatchKeys(src, tgt []string) (*RowMatch, error) {
	tindex := make(map[string]int, len(tgt))
	for i, k := range tgt {
		if prev, dup := tindex[k]; dup {
			return nil, fmt.Errorf("diff: duplicate key %q at target rows %d and %d", k, prev, i)
		}
		tindex[k] = i
	}
	m := &RowMatch{}
	seen := make(map[string]int, len(src))
	for i, k := range src {
		if prev, dup := seen[k]; dup {
			return nil, fmt.Errorf("diff: duplicate key %q at source rows %d and %d", k, prev, i)
		}
		seen[k] = i
		if ti, ok := tindex[k]; ok {
			m.Pairs = append(m.Pairs, [2]int{i, ti})
		} else {
			m.SrcOnly = append(m.SrcOnly, i)
		}
	}
	for i, k := range tgt {
		if _, ok := seen[k]; !ok {
			m.TgtOnly = append(m.TgtOnly, i)
		}
	}
	return m, nil
}

// encodedKeys returns KeyFor(r, key) for every row of t.
func encodedKeys(t *table.Table, key []string) ([]string, error) {
	out := make([]string, t.NumRows())
	for r := range out {
		k, err := t.KeyFor(r, key)
		if err != nil {
			return nil, err
		}
		out[r] = k
	}
	return out, nil
}

// CommonAlignment is a tolerant alignment over the entity intersection:
// rows only in the source are reported as deleted, rows only in the target
// as inserted, and the embedded Aligned covers the common entities — so
// summarization still works on datasets that violate the paper's
// no-insert/no-delete assumption.
type CommonAlignment struct {
	*Aligned
	// Deleted holds the original source row indices absent from the target.
	Deleted []int
	// Inserted holds the original target row indices absent from the source.
	Inserted []int
}

// AlignCommon matches the snapshots on the intersection of their entities.
// Schemas must still agree and src must declare a primary key, but row sets
// may differ; the deviation is reported rather than rejected. Like Align, it
// never mutates its inputs (the gathered common-entity tables the result
// embeds are private copies).
func AlignCommon(src, tgt *table.Table) (*CommonAlignment, error) {
	if err := schemaMismatch(src.Schema(), tgt.Schema()); err != nil {
		return nil, err
	}
	key := src.Key()
	if len(key) == 0 {
		return nil, ErrNoKey
	}
	skeys, err := encodedKeys(src, key)
	if err != nil {
		return nil, err
	}
	tkeys, err := encodedKeys(tgt, key)
	if err != nil {
		return nil, err
	}
	m, err := MatchKeys(skeys, tkeys)
	if err != nil {
		return nil, err
	}
	ca := &CommonAlignment{Deleted: m.SrcOnly, Inserted: m.TgtOnly}
	srcCommon := make([]int, len(m.Pairs))
	for i, p := range m.Pairs {
		srcCommon[i] = p[0]
	}
	// Common target rows in target row order (Pairs is src-ordered).
	inserted := make(map[int]bool, len(m.TgtOnly))
	for _, r := range m.TgtOnly {
		inserted[r] = true
	}
	tgtCommon := make([]int, 0, len(m.Pairs))
	for r := range tkeys {
		if !inserted[r] {
			tgtCommon = append(tgtCommon, r)
		}
	}
	fsrc := src.Gather(srcCommon)
	ftgt := tgt.Gather(tgtCommon)
	if err := fsrc.SetKey(key...); err != nil {
		return nil, err
	}
	if err := ftgt.SetKey(key...); err != nil {
		return nil, err
	}
	a, err := Align(fsrc, ftgt)
	if err != nil {
		return nil, err
	}
	ca.Aligned = a
	return ca, nil
}

// KeyedChange is one modified cell addressed by entity key rather than row
// number.
type KeyedChange struct {
	Key  string
	Attr string
	Old  table.Value
	New  table.Value
}

// Result is the answer to a change query between two snapshots: row-set
// membership changes plus the modified cells of the common entities, in a
// deterministic order — Removed in source row order, Inserted in target row
// order, Changes attribute-major (schema order) then source row order.
type Result struct {
	// Columns names every column of the (shared) schema in order.
	Columns []string
	// Removed lists encoded keys present only in the source.
	Removed []string
	// Inserted lists encoded keys present only in the target.
	Inserted []string
	// Changes lists every modified non-key cell of the common entities.
	Changes []KeyedChange
	// ChangedAttrs lists the non-key attributes with at least one modified
	// cell, in schema order.
	ChangedAttrs []string
	// UpdateDistance is len(Changes): the Müller et al. update distance
	// over the common entities.
	UpdateDistance int
}

// HasColumn reports whether the snapshots' shared schema has the named
// column (key columns included) — the target validation both the HTTP and
// CLI front-ends apply before filtering changes.
func (r *Result) HasColumn(name string) bool {
	for _, c := range r.Columns {
		if c == name {
			return true
		}
	}
	return false
}

// ChangesFor returns the modified cells of one attribute, in source row
// order (nil when it did not change).
func (r *Result) ChangesFor(attr string) []KeyedChange {
	var out []KeyedChange
	for _, ch := range r.Changes {
		if ch.Attr == attr {
			out = append(out, ch)
		}
	}
	return out
}

// ResultFromPair answers a change query: match the two snapshots on their
// common entities (AlignCommon) and list every modified cell at the given
// absolute tolerance. Pairs AlignCommon refuses (different schemas, no key)
// are refused with its error.
func ResultFromPair(src, tgt *table.Table, tol float64) (*Result, error) {
	ca, err := AlignCommon(src, tgt)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: src.Schema().Names()}
	key := src.Key()
	for _, r := range ca.Deleted {
		k, err := src.KeyOf(r)
		if err != nil {
			return nil, err
		}
		res.Removed = append(res.Removed, k)
	}
	for _, r := range ca.Inserted {
		k, err := tgt.KeyFor(r, key)
		if err != nil {
			return nil, err
		}
		res.Inserted = append(res.Inserted, k)
	}
	changes, err := ca.AllChanges(tol)
	if err != nil {
		return nil, err
	}
	for _, ch := range changes {
		k, err := ca.Source.KeyOf(ch.SrcRow)
		if err != nil {
			return nil, err
		}
		res.Changes = append(res.Changes, KeyedChange{Key: k, Attr: ch.Attr, Old: ch.Old, New: ch.New})
	}
	res.ChangedAttrs, err = ca.ChangedAttrs(tol)
	if err != nil {
		return nil, err
	}
	res.UpdateDistance = len(res.Changes)
	return res, nil
}

// Change is one modified cell.
type Change struct {
	SrcRow int
	Attr   string
	Old    table.Value
	New    table.Value
}

// Delta returns old and new numeric values of attr aligned by source row
// order: old[r] = source value, new[r] = matched target value.
func (a *Aligned) Delta(attr string) (oldVals, newVals []float64, err error) {
	sc, err := a.Source.Column(attr)
	if err != nil {
		return nil, nil, err
	}
	tc, err := a.Target.Column(attr)
	if err != nil {
		return nil, nil, err
	}
	n := a.Source.NumRows()
	oldVals = make([]float64, n)
	newVals = make([]float64, n)
	for r := 0; r < n; r++ {
		oldVals[r] = sc.Float(r)
		newVals[r] = tc.Float(a.TgtRow[r])
	}
	return oldVals, newVals, nil
}

// ChangedMask reports, per source row, whether attr differs between the
// snapshots. Numeric comparisons use the given absolute tolerance.
func (a *Aligned) ChangedMask(attr string, tol float64) ([]bool, error) {
	sc, err := a.Source.Column(attr)
	if err != nil {
		return nil, err
	}
	tc, err := a.Target.Column(attr)
	if err != nil {
		return nil, err
	}
	n := a.Source.NumRows()
	out := make([]bool, n)
	for r := 0; r < n; r++ {
		out[r] = cellChanged(sc, r, tc, a.TgtRow[r], tol)
	}
	return out, nil
}

// Changes lists every modified cell of attr (in source row order).
func (a *Aligned) Changes(attr string, tol float64) ([]Change, error) {
	mask, err := a.ChangedMask(attr, tol)
	if err != nil {
		return nil, err
	}
	sc := a.Source.MustColumn(attr)
	tc := a.Target.MustColumn(attr)
	var out []Change
	for r, ch := range mask {
		if ch {
			out = append(out, Change{SrcRow: r, Attr: attr, Old: sc.Value(r), New: tc.Value(a.TgtRow[r])})
		}
	}
	return out, nil
}

// AllChanges lists every modified cell across all non-key attributes.
func (a *Aligned) AllChanges(tol float64) ([]Change, error) {
	keySet := map[string]bool{}
	for _, k := range a.Source.Key() {
		keySet[k] = true
	}
	var out []Change
	for _, f := range a.Source.Schema() {
		if keySet[f.Name] {
			continue
		}
		ch, err := a.Changes(f.Name, tol)
		if err != nil {
			return nil, err
		}
		out = append(out, ch...)
	}
	return out, nil
}

// UpdateDistance is the Müller et al. (CIKM 2006) notion specialized to the
// ChARLES setting (no inserts/deletes): the minimal number of cell
// modifications transforming source into target.
func (a *Aligned) UpdateDistance(tol float64) (int, error) {
	ch, err := a.AllChanges(tol)
	if err != nil {
		return 0, err
	}
	return len(ch), nil
}

// ChangedAttrs returns the non-key attributes with at least one modified
// cell, in schema order — the candidates for "target attribute of interest".
func (a *Aligned) ChangedAttrs(tol float64) ([]string, error) {
	keySet := map[string]bool{}
	for _, k := range a.Source.Key() {
		keySet[k] = true
	}
	var out []string
	for _, f := range a.Source.Schema() {
		if keySet[f.Name] {
			continue
		}
		mask, err := a.ChangedMask(f.Name, tol)
		if err != nil {
			return nil, err
		}
		for _, ch := range mask {
			if ch {
				out = append(out, f.Name)
				break
			}
		}
	}
	return out, nil
}

func cellChanged(sc *table.Column, sr int, tc *table.Column, tr int, tol float64) bool {
	sn, tn := sc.IsNull(sr), tc.IsNull(tr)
	if sn || tn {
		return sn != tn
	}
	if sc.Type.Numeric() && tc.Type.Numeric() {
		x, y := sc.Float(sr), tc.Float(tr)
		// NaN behaves like null: a transition into or out of NaN is a change,
		// NaN on both sides is not. (The naive |x−y| > tol test is always
		// false when either side is NaN, which made such transitions
		// invisible to ChangedMask, ChangedAttrs, and UpdateDistance.)
		if xn, yn := math.IsNaN(x), math.IsNaN(y); xn || yn {
			return xn != yn
		}
		d := x - y
		if d < 0 {
			d = -d
		}
		return d > tol
	}
	return !sc.Value(sr).Equal(tc.Value(tr))
}
