// Delta-native change queries: answering Diff-style questions straight from
// the row-level ops the version store's delta packs already persist, instead
// of checking out both snapshots and re-aligning them from scratch — the
// "maintain the answer under updates" framing (Berkholz et al.) applied to
// the repository's hottest read path. A ChangeSet is the decoded op list of
// one version against its base; Result is the answer to a change query; and
// the two constructors — ResultFromPair (align-based reference) and
// ResultFromChangeSets (delta-native) — are differentially tested to be
// bit-identical wherever the delta path is applicable.

package diff

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"charles/internal/csvio"
	"charles/internal/table"
)

// ErrNotDeltaNative reports that a change query could not be served from
// delta ops alone — a cell text that does not parse under the base schema,
// keys whose encoding is not canonical, ops that contradict the base row
// set, or a materialized (anchor) version in the chain. Callers fall back to
// the checkout+align path, which answers every query the delta path answers
// (and more), just slower.
var ErrNotDeltaNative = errors.New("diff: change query not answerable from deltas")

// ChangeSet is the decoded row-level delta of one version against its base:
// exactly the ops a delta pack persists — removed keys, inserted rows, and
// cell patches, addressed by the encoded primary key (table.EncodeKey
// encoding) with cell texts in canonical CSV form. Versions stored as full
// snapshots (anchors, roots, fallback full packs) have no ops and set
// Materialized instead.
type ChangeSet struct {
	// Version is the snapshot the ops produce (annotation; may be empty
	// for hand-built sets).
	Version string
	// Base is the snapshot the ops apply to ("" for materialized versions).
	Base string
	// Materialized marks versions stored whole: no delta ops exist, and
	// change queries against them must go through the align-based path.
	Materialized bool
	// Columns names the canonical header in schema order; patch and insert
	// cell indices refer to it. Optional: Store.Changes fills it for
	// presentation, the query paths resolve columns against the base table.
	Columns []string

	Removed  []string      // encoded keys deleted from the base, key-sorted
	Inserted []InsertedRow // rows whose key is absent from the base, key-sorted
	Patched  []RowPatch    // cell rewrites of rows present in both, key-sorted
}

// InsertedRow is one inserted row: its encoded key and the full record in
// canonical column order.
type InsertedRow struct {
	Key   string
	Cells []string
}

// RowPatch is one patched row: the changed column indices (canonical order)
// and the new cell texts, parallel slices.
type RowPatch struct {
	Key  string
	Cols []int
	Vals []string
}

// KeyedChange is one modified cell addressed by entity key rather than row
// number — the row-free form of Change that delta-native answers produce.
type KeyedChange struct {
	Key  string
	Attr string
	Old  table.Value
	New  table.Value
}

// Result is the answer to a change query between two snapshots: row-set
// membership changes plus the modified cells of the common entities. Both
// constructors produce the same deterministic shape — Removed in source row
// order, Inserted in target row order, Changes attribute-major (schema
// order) then source row order — so the align-based and delta-native paths
// can be compared byte for byte.
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

// ResultFromPair answers a change query the align-based way: match the two
// snapshots on their common entities (AlignCommon) and list every modified
// cell. This is the reference semantics the delta-native path must match.
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

// rowState is the composed fate of one key across a ChangeSet sequence.
type rowState struct {
	status byte           // 'r' removed, 'i' inserted, 'p' patched, 'R' replaced (removed then re-inserted)
	row    []string       // 'i'/'R': the full record
	cells  map[int]string // 'p': merged patched cells
}

// ResultFromChangeSets answers a change query straight from delta ops: given
// the source snapshot (one parent checkout) and the ChangeSets of each hop
// from source to target, it composes the ops — a key patched twice keeps the
// last value, a key removed and re-inserted becomes a cell comparison, a
// patch that lands back on the original value is no change at all — and
// evaluates the surviving candidates against the source's typed values with
// the same tolerance and null/NaN semantics as the align-based path. Neither
// the target snapshot's CSV nor a full MatchKeys alignment is ever touched:
// the work is proportional to the delta, not the relation.
//
// The result is bit-identical to ResultFromPair(parent, target, tol)
// whenever both paths answer — every schema-stable pair, which the fuzz
// corpus differentially pins. Queries the ops cannot faithfully answer — a
// cell that does not parse under the parent schema (the child checkout
// would re-infer a wider column type), non-canonical key texts, ops
// contradicting the parent row set — return ErrNotDeltaNative-wrapped
// errors, and the caller falls back to the align path. One asymmetry is
// deliberate: a delta that *narrows* a column's inferred type (rewriting or
// removing the one cell that kept it wide) is evaluated here under the
// source schema and answered, while the align path refuses the same pair
// with ErrSchemaMismatch — the delta path is strictly more available, never
// contradictory.
func ResultFromChangeSets(parent *table.Table, sets []*ChangeSet, tol float64) (*Result, error) {
	key := parent.Key()
	if len(key) == 0 {
		return nil, ErrNoKey
	}
	schema := parent.Schema()
	norm, err := newKeyNormalizer(parent, key)
	if err != nil {
		return nil, err
	}
	keyCol := make([]bool, len(schema))
	for ci, f := range schema {
		for _, k := range key {
			if f.Name == k {
				keyCol[ci] = true
			}
		}
	}

	ev, err := newDeltaEval(parent, schema, keyCol, tol, norm)
	if err != nil {
		return nil, err
	}
	for _, cs := range sets {
		if cs == nil || cs.Materialized {
			return nil, fmt.Errorf("%w: materialized version in the delta chain", ErrNotDeltaNative)
		}
	}

	// One ChangeSet whose op lists are strictly key-sorted (every pack's op
	// list is) needs no composition at all: evaluate the ops directly, with
	// no overlay map and no per-key state allocation. Sets that fail the
	// sortedness check — or multi-hop queries — take the general compose
	// path below.
	if len(sets) == 1 {
		if done, err := ev.evalSortedSet(sets[0], norm); done || err != nil {
			if err != nil {
				return nil, err
			}
			return ev.finalize(parent)
		}
	}

	overlay := map[string]*rowState{}
	for _, cs := range sets {
		for _, raw := range cs.Removed {
			k, err := norm.normalize(raw)
			if err != nil {
				return nil, err
			}
			st := overlay[k]
			switch {
			case st == nil || st.status == 'p':
				overlay[k] = &rowState{status: 'r'}
			case st.status == 'i':
				delete(overlay, k) // inserted then removed: never existed
			case st.status == 'R':
				overlay[k] = &rowState{status: 'r'}
			default: // removed twice
				return nil, fmt.Errorf("%w: key %q removed twice", ErrNotDeltaNative, k)
			}
		}
		for _, ins := range cs.Inserted {
			k, err := norm.normalize(ins.Key)
			if err != nil {
				return nil, err
			}
			if len(ins.Cells) != len(schema) {
				return nil, fmt.Errorf("%w: insert for key %q has %d cells, want %d", ErrNotDeltaNative, k, len(ins.Cells), len(schema))
			}
			row := append([]string(nil), ins.Cells...)
			st := overlay[k]
			switch {
			case st == nil:
				overlay[k] = &rowState{status: 'i', row: row}
			case st.status == 'r':
				overlay[k] = &rowState{status: 'R', row: row}
			default:
				return nil, fmt.Errorf("%w: key %q inserted while present", ErrNotDeltaNative, k)
			}
		}
		for _, p := range cs.Patched {
			k, err := norm.normalize(p.Key)
			if err != nil {
				return nil, err
			}
			if len(p.Cols) != len(p.Vals) {
				return nil, fmt.Errorf("%w: patch for key %q has %d columns, %d values", ErrNotDeltaNative, k, len(p.Cols), len(p.Vals))
			}
			st := overlay[k]
			if st == nil {
				st = &rowState{status: 'p', cells: map[int]string{}}
				overlay[k] = st
			}
			for i, ci := range p.Cols {
				if ci < 0 || ci >= len(schema) {
					return nil, fmt.Errorf("%w: patch for key %q: column %d out of range", ErrNotDeltaNative, k, ci)
				}
				if keyCol[ci] {
					return nil, fmt.Errorf("%w: patch for key %q rewrites key column %q", ErrNotDeltaNative, k, schema[ci].Name)
				}
				switch st.status {
				case 'p':
					st.cells[ci] = p.Vals[i]
				case 'i', 'R':
					st.row[ci] = p.Vals[i]
				default: // patch after remove
					return nil, fmt.Errorf("%w: key %q patched after removal", ErrNotDeltaNative, k)
				}
			}
		}
	}

	// Evaluate the composed overlay against the parent's typed values.
	for k, st := range overlay {
		r, inParent := ev.finder.find(k)
		switch st.status {
		case 'r':
			if !inParent {
				return nil, fmt.Errorf("%w: removed key %q not in base", ErrNotDeltaNative, k)
			}
			ev.removedRows = append(ev.removedRows, r)
		case 'i':
			if inParent {
				return nil, fmt.Errorf("%w: inserted key %q already in base", ErrNotDeltaNative, k)
			}
			if err := ev.evalInsert(k, st.row); err != nil {
				return nil, err
			}
		case 'R':
			if !inParent {
				return nil, fmt.Errorf("%w: replaced key %q not in base", ErrNotDeltaNative, k)
			}
			if ik, err := ev.norm.keyFromCells(st.row); err != nil {
				return nil, err
			} else if ik != k {
				return nil, fmt.Errorf("%w: re-inserted key %q disagrees with its key cells (%q)", ErrNotDeltaNative, k, ik)
			}
			for ci := range schema {
				if keyCol[ci] {
					continue
				}
				if err := ev.evalCell(k, r, ci, st.row[ci]); err != nil {
					return nil, err
				}
			}
		case 'p':
			if !inParent {
				return nil, fmt.Errorf("%w: patched key %q not in base", ErrNotDeltaNative, k)
			}
			for ci, val := range st.cells {
				if err := ev.evalCell(k, r, ci, val); err != nil {
					return nil, err
				}
			}
		}
	}
	return ev.finalize(parent)
}

// deltaEval accumulates a Result's raw material: removed rows, inserted
// keys, and per-column change buckets. Buckets keep schema order for free
// (the attribute-major output order), and each bucket tracks whether its
// rows arrived already sorted, so the common sorted-ops case never sorts
// the fat change structs at all.
type deltaEval struct {
	parent *table.Table
	schema table.Schema
	keyCol []bool
	tol    float64
	finder *rowFinder
	norm   *keyNormalizer

	removedRows []int
	inserted    []string
	cols        [][]bucketedChange
	colSorted   []bool
}

type bucketedChange struct {
	row    int
	change KeyedChange
}

func newDeltaEval(parent *table.Table, schema table.Schema, keyCol []bool, tol float64, norm *keyNormalizer) (*deltaEval, error) {
	finder, err := newRowFinder(parent, parent.Key())
	if err != nil {
		return nil, err
	}
	ev := &deltaEval{
		parent: parent, schema: schema, keyCol: keyCol, tol: tol, finder: finder, norm: norm,
		cols: make([][]bucketedChange, len(schema)), colSorted: make([]bool, len(schema)),
	}
	for ci := range ev.colSorted {
		ev.colSorted[ci] = true
	}
	return ev, nil
}

// evalCell compares one candidate cell (raw new text under the parent's
// column type) and records it when it really changed.
func (ev *deltaEval) evalCell(k string, r, ci int, val string) error {
	if ci < 0 || ci >= len(ev.schema) {
		return fmt.Errorf("%w: patch for key %q: column %d out of range", ErrNotDeltaNative, k, ci)
	}
	if ev.keyCol[ci] {
		return fmt.Errorf("%w: patch for key %q rewrites key column %q", ErrNotDeltaNative, k, ev.schema[ci].Name)
	}
	nv, err := csvio.ParseCell(val, ev.schema[ci].Type)
	if err != nil {
		return fmt.Errorf("%w: key %q column %q: %v", ErrNotDeltaNative, k, ev.schema[ci].Name, err)
	}
	col := ev.parent.ColumnAt(ci)
	b := ev.cols[ci]
	if n := len(b); n > 0 && b[n-1].row == r {
		// A duplicated column index within one op: the last write wins,
		// exactly as applyDelta applies it during reconstruction, so drop
		// the earlier verdict and re-evaluate.
		ev.cols[ci] = b[:n-1]
		b = ev.cols[ci]
	}
	if !changedValue(col, r, nv, ev.tol) {
		return nil
	}
	if n := len(b); n > 0 && b[n-1].row >= r {
		ev.colSorted[ci] = false
	}
	ev.cols[ci] = append(b, bucketedChange{row: r, change: KeyedChange{
		Key: k, Attr: ev.schema[ci].Name, Old: col.Value(r), New: nv,
	}})
	return nil
}

// evalInsert validates that an inserted row's cells parse under the parent
// schema (a cell that does not would widen the child's inferred column type,
// and the align path would then see different schemas), that its key cells
// agree with the declared op key, and records the key.
func (ev *deltaEval) evalInsert(k string, cells []string) error {
	for ci, cell := range cells {
		if _, err := csvio.ParseCell(cell, ev.schema[ci].Type); err != nil {
			return fmt.Errorf("%w: inserted key %q column %q: %v", ErrNotDeltaNative, k, ev.schema[ci].Name, err)
		}
	}
	ik, err := ev.norm.keyFromCells(cells)
	if err != nil {
		return err
	}
	if ik != k {
		return fmt.Errorf("%w: inserted key %q disagrees with its key cells (%q)", ErrNotDeltaNative, k, ik)
	}
	ev.inserted = append(ev.inserted, k)
	return nil
}

// evalSortedSet is the no-composition fast path for one strictly key-sorted
// ChangeSet (the shape every delta pack has). It reports done=false — with
// nothing recorded — when an op list turns out not to be strictly sorted
// after key normalization, sending the caller to the general compose path.
func (ev *deltaEval) evalSortedSet(cs *ChangeSet, norm *keyNormalizer) (done bool, err error) {
	normKeys := func(n int, keyAt func(int) string) ([]string, bool) {
		out := make([]string, n)
		for i := 0; i < n; i++ {
			k, err := norm.normalize(keyAt(i))
			if err != nil {
				return nil, false
			}
			if i > 0 && out[i-1] >= k {
				return nil, false
			}
			out[i] = k
		}
		return out, true
	}
	removed, ok := normKeys(len(cs.Removed), func(i int) string { return cs.Removed[i] })
	if !ok {
		return false, nil
	}
	insertedKeys, ok := normKeys(len(cs.Inserted), func(i int) string { return cs.Inserted[i].Key })
	if !ok {
		return false, nil
	}
	patchedKeys, ok := normKeys(len(cs.Patched), func(i int) string { return cs.Patched[i].Key })
	if !ok {
		return false, nil
	}

	for _, k := range removed {
		r, inParent := ev.finder.find(k)
		if !inParent {
			return true, fmt.Errorf("%w: removed key %q not in base", ErrNotDeltaNative, k)
		}
		ev.removedRows = append(ev.removedRows, r)
	}
	sort.Ints(ev.removedRows)
	removedRow := func(r int) bool {
		i := sort.SearchInts(ev.removedRows, r)
		return i < len(ev.removedRows) && ev.removedRows[i] == r
	}
	for i, k := range insertedKeys {
		if _, inParent := ev.finder.find(k); inParent {
			return true, fmt.Errorf("%w: inserted key %q already in base", ErrNotDeltaNative, k)
		}
		if len(cs.Inserted[i].Cells) != len(ev.schema) {
			return true, fmt.Errorf("%w: insert for key %q has %d cells, want %d", ErrNotDeltaNative, k, len(cs.Inserted[i].Cells), len(ev.schema))
		}
		if err := ev.evalInsert(k, cs.Inserted[i].Cells); err != nil {
			return true, err
		}
	}
	// Pre-size the per-column buckets: one exact allocation per touched
	// column instead of append-growth of the (fat) change records.
	counts := make([]int, len(ev.schema))
	for _, p := range cs.Patched {
		for _, ci := range p.Cols {
			if ci >= 0 && ci < len(counts) {
				counts[ci]++
			}
		}
	}
	for ci, n := range counts {
		if n > 0 && cap(ev.cols[ci]) < n {
			ev.cols[ci] = make([]bucketedChange, 0, n)
		}
	}
	for i, k := range patchedKeys {
		p := cs.Patched[i]
		if len(p.Cols) != len(p.Vals) {
			return true, fmt.Errorf("%w: patch for key %q has %d columns, %d values", ErrNotDeltaNative, k, len(p.Cols), len(p.Vals))
		}
		r, inParent := ev.finder.find(k)
		if !inParent {
			return true, fmt.Errorf("%w: patched key %q not in base", ErrNotDeltaNative, k)
		}
		if removedRow(r) {
			return true, fmt.Errorf("%w: key %q both removed and patched", ErrNotDeltaNative, k)
		}
		for j, ci := range p.Cols {
			if err := ev.evalCell(k, r, ci, p.Vals[j]); err != nil {
				return true, err
			}
		}
	}
	return true, nil
}

// finalize assembles the deterministic Result: removed keys in source row
// order, inserted keys in target (key-sorted) order, changes
// attribute-major (schema order) then source row order.
func (ev *deltaEval) finalize(parent *table.Table) (*Result, error) {
	res := &Result{Columns: ev.schema.Names()}
	sort.Ints(ev.removedRows)
	for i, r := range ev.removedRows {
		if i > 0 && ev.removedRows[i-1] == r {
			return nil, fmt.Errorf("%w: duplicate removal of row %d", ErrNotDeltaNative, r)
		}
		k, err := parent.KeyOf(r)
		if err != nil {
			return nil, err
		}
		res.Removed = append(res.Removed, k)
	}
	sort.Strings(ev.inserted)
	res.Inserted = ev.inserted
	total := 0
	for _, b := range ev.cols {
		total += len(b)
	}
	if total > 0 {
		res.Changes = make([]KeyedChange, 0, total)
	}
	for ci, b := range ev.cols {
		if len(b) == 0 {
			continue
		}
		if !ev.colSorted[ci] {
			sort.Slice(b, func(i, j int) bool { return b[i].row < b[j].row })
		}
		for _, c := range b {
			res.Changes = append(res.Changes, c.change)
		}
		res.ChangedAttrs = append(res.ChangedAttrs, ev.schema[ci].Name)
	}
	res.UpdateDistance = len(res.Changes)
	return res, nil
}

// changedValue is cellChanged with the new side supplied as a parsed Value
// instead of a column cell: same null semantics, same NaN-as-null rule, same
// absolute tolerance.
func changedValue(oldCol *table.Column, r int, nv table.Value, tol float64) bool {
	on, nn := oldCol.IsNull(r), nv.IsNull()
	if on || nn {
		return on != nn
	}
	if oldCol.Type.Numeric() && nv.Type().Numeric() {
		x, y := oldCol.Float(r), nv.Float()
		if xn, yn := math.IsNaN(x), math.IsNaN(y); xn || yn {
			return xn != yn
		}
		d := x - y
		if d < 0 {
			d = -d
		}
		return d > tol
	}
	return !oldCol.Value(r).Equal(nv)
}

// keyNormalizer re-encodes raw op keys (canonical CSV cell texts) into the
// table key space (Value.Str of the parsed cells), so delta-op keys compare
// equal to table.KeyOf keys even when the raw text carries whitespace or
// numeric decorations the cell parser normalizes away.
type keyNormalizer struct {
	n     int
	types []table.Type
	idx   []int // key column positions in the schema, key order
}

func newKeyNormalizer(t *table.Table, key []string) (*keyNormalizer, error) {
	kn := &keyNormalizer{n: len(key)}
	schema := t.Schema()
	for _, k := range key {
		c, err := t.Column(k)
		if err != nil {
			return nil, err
		}
		kn.types = append(kn.types, c.Type)
		for ci, f := range schema {
			if f.Name == k {
				kn.idx = append(kn.idx, ci)
				break
			}
		}
	}
	if len(kn.idx) != kn.n {
		return nil, fmt.Errorf("diff: key columns missing from schema")
	}
	return kn, nil
}

// keyFromCells encodes the key an inserted row's own key cells define —
// the key the row would actually carry in the child snapshot. Ops whose
// declared key disagrees with their cells are corrupt.
func (kn *keyNormalizer) keyFromCells(cells []string) (string, error) {
	parts := make([]string, kn.n)
	for i, ci := range kn.idx {
		v, err := csvio.ParseCell(cells[ci], kn.types[i])
		if err != nil {
			return "", fmt.Errorf("%w: key cell %q: %v", ErrNotDeltaNative, cells[ci], err)
		}
		parts[i] = v.Str()
	}
	return table.EncodeKey(parts), nil
}

func (kn *keyNormalizer) normalize(raw string) (string, error) {
	if kn.n == 1 {
		// Single-column keys are the raw cell verbatim: skip the
		// decode/encode round trip (this is the per-op hot path).
		v, err := csvio.ParseCell(raw, kn.types[0])
		if err != nil {
			return "", fmt.Errorf("%w: key %q: %v", ErrNotDeltaNative, raw, err)
		}
		return v.Str(), nil
	}
	parts, err := table.DecodeKey(raw, kn.n)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrNotDeltaNative, err)
	}
	for i, p := range parts {
		v, err := csvio.ParseCell(p, kn.types[i])
		if err != nil {
			return "", fmt.Errorf("%w: key part %q: %v", ErrNotDeltaNative, p, err)
		}
		parts[i] = v.Str()
	}
	return table.EncodeKey(parts), nil
}

// rowFinder resolves encoded keys to row indices of one table. It encodes
// every key once up front; when the table is key-sorted (the canonical
// layout every checkout has) lookups are binary searches with no map at all,
// otherwise it falls back to a hash index.
type rowFinder struct {
	keys   []string
	sorted bool
	index  map[string]int
}

func newRowFinder(t *table.Table, key []string) (*rowFinder, error) {
	n := t.NumRows()
	f := &rowFinder{keys: make([]string, n), sorted: true}
	for r := 0; r < n; r++ {
		k, err := t.KeyFor(r, key)
		if err != nil {
			return nil, err
		}
		f.keys[r] = k
		if r > 0 && f.keys[r-1] >= k {
			f.sorted = false
		}
	}
	if !f.sorted {
		f.index = make(map[string]int, n)
		for r, k := range f.keys {
			if prev, dup := f.index[k]; dup {
				return nil, fmt.Errorf("diff: duplicate key %q at rows %d and %d", k, prev, r)
			}
			f.index[k] = r
		}
	}
	return f, nil
}

func (f *rowFinder) find(k string) (int, bool) {
	if f.sorted {
		lo := sort.SearchStrings(f.keys, k)
		if lo < len(f.keys) && f.keys[lo] == k {
			return lo, true
		}
		return 0, false
	}
	r, ok := f.index[k]
	return r, ok
}
