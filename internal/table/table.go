package table

import (
	"fmt"
	"sort"
	"strings"
)

// Field describes one column of a schema.
type Field struct {
	Name string
	Type Type
}

// Schema is an ordered list of fields.
type Schema []Field

// Names returns the field names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, f := range s {
		out[i] = f.Name
	}
	return out
}

// Equal reports whether two schemas have identical names and types in order.
func (s Schema) Equal(o Schema) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Table is an in-memory relational table: an ordered set of typed columns of
// equal length, with an optional primary key for entity alignment.
type Table struct {
	schema Schema
	cols   []*Column
	byName map[string]int

	key []string // primary-key column names (may be empty)
}

// New creates an empty table with the given schema.
func New(schema Schema) (*Table, error) {
	t := &Table{schema: append(Schema(nil), schema...), byName: map[string]int{}}
	for i, f := range schema {
		if f.Name == "" {
			return nil, fmt.Errorf("table: field %d has empty name", i)
		}
		if _, dup := t.byName[f.Name]; dup {
			return nil, fmt.Errorf("table: duplicate column name %q", f.Name)
		}
		t.byName[f.Name] = i
		t.cols = append(t.cols, NewColumn(f.Name, f.Type))
	}
	return t, nil
}

// MustNew is New, panicking on error. Intended for tests and literals.
func MustNew(schema Schema) *Table {
	t, err := New(schema)
	if err != nil {
		panic(err)
	}
	return t
}

// Schema returns a copy of the table schema.
func (t *Table) Schema() Schema { return append(Schema(nil), t.schema...) }

// NumRows returns the number of rows.
func (t *Table) NumRows() int {
	if len(t.cols) == 0 {
		return 0
	}
	return t.cols[0].Len()
}

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.cols) }

// HasColumn reports whether the named column exists.
func (t *Table) HasColumn(name string) bool {
	_, ok := t.byName[name]
	return ok
}

// Column returns the named column, or an error if absent.
func (t *Table) Column(name string) (*Column, error) {
	i, ok := t.byName[name]
	if !ok {
		return nil, fmt.Errorf("table: no column %q", name)
	}
	return t.cols[i], nil
}

// MustColumn returns the named column, panicking if absent. For callers that
// have already validated the schema.
func (t *Table) MustColumn(name string) *Column {
	c, err := t.Column(name)
	if err != nil {
		panic(err)
	}
	return c
}

// ColumnAt returns the column at position i.
func (t *Table) ColumnAt(i int) *Column { return t.cols[i] }

// AppendRow appends a row of values, one per column in schema order.
// The append is atomic: on a type error no column is modified.
func (t *Table) AppendRow(vals ...Value) error {
	if len(vals) != len(t.cols) {
		return fmt.Errorf("table: AppendRow got %d values, want %d", len(vals), len(t.cols))
	}
	for i, v := range vals {
		if err := t.cols[i].compatible(v); err != nil {
			return err
		}
	}
	for i, v := range vals {
		if err := t.cols[i].Append(v); err != nil {
			// Unreachable after the compatibility pass; re-validate anyway.
			return err
		}
	}
	return nil
}

// MustAppendRow is AppendRow, panicking on error.
func (t *Table) MustAppendRow(vals ...Value) {
	if err := t.AppendRow(vals...); err != nil {
		panic(err)
	}
}

// Value returns the value at (row, column-name).
func (t *Table) Value(row int, name string) (Value, error) {
	c, err := t.Column(name)
	if err != nil {
		return Value{}, err
	}
	if row < 0 || row >= c.Len() {
		return Value{}, fmt.Errorf("table: row %d out of range [0,%d)", row, c.Len())
	}
	return c.Value(row), nil
}

// SetKey declares the primary-key columns used for entity alignment.
func (t *Table) SetKey(cols ...string) error {
	for _, c := range cols {
		if !t.HasColumn(c) {
			return fmt.Errorf("table: key column %q not in schema", c)
		}
	}
	t.key = append([]string(nil), cols...)
	return nil
}

// Key returns the primary-key column names (nil if unset).
func (t *Table) Key() []string { return append([]string(nil), t.key...) }

// KeyOf encodes the primary key of the given row as a string.
func (t *Table) KeyOf(row int) (string, error) {
	if len(t.key) == 0 {
		return "", fmt.Errorf("table: no primary key set")
	}
	return t.KeyFor(row, t.key)
}

// KeySep joins the per-column parts of a multi-column encoded key. Exported
// so code that re-derives keys from other representations of a row (the
// store's pack codec encodes them from raw canonical-CSV cells) provably
// matches KeyOf/KeyFor. Parts are escaped before joining (see EncodeKey), so
// a cell that itself contains the separator cannot alias another key.
const KeySep = "\x1f"

// keyEsc escapes KeySep and itself inside one part of an encoded key. It is
// a control character (like KeySep) rather than something common such as a
// backslash, so the escaped encoding coincides with the historical raw join
// for every key whose cells contain neither control character — existing
// stores keep their on-disk delta-op keys and sort order; only the
// separator/escape-bearing keys that used to alias (the bug being fixed)
// encode differently.
const keyEsc = '\x1e'

// EncodeKey joins per-column key parts into one encoded key string. A
// single-column key is the part verbatim (nothing is joined, so nothing can
// alias). Multi-column keys escape the separator and the escape character
// inside each part before joining — without the escaping, the two distinct
// keys ("a\x1fb", "c") and ("a", "b\x1fc") encoded identically, silently
// corrupting key matching in diff.MatchKeys and the store's delta encoder.
// EncodeKey is the single shared encoder: KeyOf/KeyFor and the store's pack
// codec all produce keys through it.
func EncodeKey(parts []string) string {
	if len(parts) == 1 {
		return parts[0]
	}
	clean := true
	for _, p := range parts {
		if strings.IndexByte(p, KeySep[0]) >= 0 || strings.IndexByte(p, keyEsc) >= 0 {
			clean = false
			break
		}
	}
	if clean {
		return strings.Join(parts, KeySep)
	}
	var b strings.Builder
	for i, p := range parts {
		if i > 0 {
			b.WriteString(KeySep)
		}
		for j := 0; j < len(p); j++ {
			if c := p[j]; c == keyEsc || c == KeySep[0] {
				b.WriteByte(keyEsc)
			}
			b.WriteByte(p[j])
		}
	}
	return b.String()
}

// DecodeKey splits an encoded key back into its n per-column parts, undoing
// EncodeKey's escaping. It errors when the encoding is malformed (dangling
// escape) or the part count disagrees with n.
func DecodeKey(encoded string, n int) ([]string, error) {
	if n == 1 {
		return []string{encoded}, nil
	}
	parts := make([]string, 0, n)
	var cur strings.Builder
	for i := 0; i < len(encoded); i++ {
		switch encoded[i] {
		case keyEsc:
			if i+1 >= len(encoded) {
				return nil, fmt.Errorf("table: malformed encoded key: dangling escape")
			}
			i++
			cur.WriteByte(encoded[i])
		case KeySep[0]:
			parts = append(parts, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(encoded[i])
		}
	}
	parts = append(parts, cur.String())
	if len(parts) != n {
		return nil, fmt.Errorf("table: encoded key has %d parts, want %d", len(parts), n)
	}
	return parts, nil
}

// KeyFor encodes the values of cols at row in the same format KeyOf uses for
// the declared key, without consulting or touching the key declaration — so
// a table can be matched against another table's key purely read-only.
func (t *Table) KeyFor(row int, cols []string) (string, error) {
	if len(cols) == 0 {
		return "", fmt.Errorf("table: KeyFor needs at least one column")
	}
	if len(cols) == 1 {
		// Single-column keys (the common case) skip the parts slice and
		// join — alignment encodes every row's key, so this is a hot path.
		v, err := t.Value(row, cols[0])
		if err != nil {
			return "", err
		}
		return v.Str(), nil
	}
	parts := make([]string, len(cols))
	for i, k := range cols {
		v, err := t.Value(row, k)
		if err != nil {
			return "", err
		}
		parts[i] = v.Str()
	}
	return EncodeKey(parts), nil
}

// KeyIndexFor builds and returns an encoded-key → row index over cols,
// rejecting duplicate keys. It never mutates the table, so concurrent
// callers may index a shared table safely.
func (t *Table) KeyIndexFor(cols []string) (map[string]int, error) {
	idx := make(map[string]int, t.NumRows())
	for r := 0; r < t.NumRows(); r++ {
		k, err := t.KeyFor(r, cols)
		if err != nil {
			return nil, err
		}
		if prev, dup := idx[k]; dup {
			return nil, fmt.Errorf("table: duplicate primary key %q at rows %d and %d", k, prev, r)
		}
		idx[k] = r
	}
	return idx, nil
}

// Clone returns a deep copy of the table (including the key declaration).
func (t *Table) Clone() *Table {
	d := &Table{schema: t.Schema(), byName: map[string]int{}, key: append([]string(nil), t.key...)}
	for i, c := range t.cols {
		d.cols = append(d.cols, c.clone())
		d.byName[c.Name] = i
	}
	return d
}

// Gather returns a new table containing the given rows in order.
func (t *Table) Gather(rows []int) *Table {
	d := &Table{schema: t.Schema(), byName: map[string]int{}, key: append([]string(nil), t.key...)}
	for i, c := range t.cols {
		d.cols = append(d.cols, c.gather(rows))
		d.byName[c.Name] = i
	}
	return d
}

// Filter returns a new table with the rows where mask[i] is true.
func (t *Table) Filter(mask []bool) (*Table, error) {
	if len(mask) != t.NumRows() {
		return nil, fmt.Errorf("table: Filter mask length %d != rows %d", len(mask), t.NumRows())
	}
	var rows []int
	for i, keep := range mask {
		if keep {
			rows = append(rows, i)
		}
	}
	return t.Gather(rows), nil
}

// SortByKey sorts rows by the encoded primary key (stable, lexicographic)
// and returns the sorted copy. The receiver is unchanged.
func (t *Table) SortByKey() (*Table, error) {
	if len(t.key) == 0 {
		return nil, fmt.Errorf("table: no primary key set")
	}
	n := t.NumRows()
	keys := make([]string, n)
	for r := 0; r < n; r++ {
		k, err := t.KeyOf(r)
		if err != nil {
			return nil, err
		}
		keys[r] = k
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })
	return t.Gather(order), nil
}

// Equal reports whether two tables have identical schemas and cell values in
// the same row order.
func (t *Table) Equal(o *Table) bool {
	if !t.schema.Equal(o.schema) || t.NumRows() != o.NumRows() {
		return false
	}
	for ci := range t.cols {
		a, b := t.cols[ci], o.cols[ci]
		for r := 0; r < a.Len(); r++ {
			if !a.Value(r).Equal(b.Value(r)) {
				return false
			}
		}
	}
	return true
}

// String renders the table as a compact aligned-text grid (for debugging and
// small demo outputs). Large tables render only the first 20 rows.
func (t *Table) String() string {
	const maxRows = 20
	var b strings.Builder
	widths := make([]int, len(t.cols))
	for i, f := range t.schema {
		widths[i] = len(f.Name)
	}
	n := t.NumRows()
	shown := n
	if shown > maxRows {
		shown = maxRows
	}
	cells := make([][]string, shown)
	for r := 0; r < shown; r++ {
		cells[r] = make([]string, len(t.cols))
		for i, c := range t.cols {
			s := c.Value(r).String()
			cells[r][i] = s
			if len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	for i, f := range t.schema {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], f.Name)
	}
	b.WriteByte('\n')
	for r := 0; r < shown; r++ {
		for i := range t.cols {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cells[r][i])
		}
		b.WriteByte('\n')
	}
	if n > shown {
		fmt.Fprintf(&b, "... (%d more rows)\n", n-shown)
	}
	return b.String()
}
