// Package csvio loads and saves table.Table values as CSV with automatic
// type inference. It tolerates the formatting found in real payroll-style
// exports: currency symbols, thousands separators, percent signs, and empty
// cells (loaded as nulls).
package csvio

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"charles/internal/table"
)

// Options control CSV reading.
type Options struct {
	// Comma is the field delimiter (default ',').
	Comma rune
	// Key names the primary-key columns to declare on the loaded table.
	Key []string
	// ForceString lists columns that must not be type-inferred (e.g. zip
	// codes or IDs with leading zeros).
	ForceString []string
}

// Read parses CSV from r into a table, inferring a column type from the
// values: int if every non-empty cell parses as an integer, float if every
// cell parses as a number (currency/percent decorations are stripped), bool
// if every cell is true/false, otherwise string.
func Read(r io.Reader, opts Options) (*table.Table, error) {
	cr := csv.NewReader(r)
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.TrimLeadingSpace = true
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("csvio: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("csvio: empty input (no header row)")
	}
	header := records[0]
	rows := records[1:]
	forced := map[string]bool{}
	for _, c := range opts.ForceString {
		forced[c] = true
	}

	schema := make(table.Schema, len(header))
	for ci, name := range header {
		name = strings.TrimSpace(name)
		if name == "" {
			name = fmt.Sprintf("col%d", ci)
		}
		t := table.String
		if !forced[name] {
			t = inferType(rows, ci)
		}
		schema[ci] = table.Field{Name: name, Type: t}
	}
	t, err := table.New(schema)
	if err != nil {
		return nil, err
	}
	vals := make([]table.Value, len(header))
	for ri, rec := range rows {
		if len(rec) != len(header) {
			return nil, fmt.Errorf("csvio: row %d has %d fields, want %d", ri+2, len(rec), len(header))
		}
		for ci, cell := range rec {
			v, err := ParseCell(cell, schema[ci].Type)
			if err != nil {
				return nil, fmt.Errorf("csvio: row %d column %q: %w", ri+2, schema[ci].Name, err)
			}
			vals[ci] = v
		}
		if err := t.AppendRow(vals...); err != nil {
			return nil, err
		}
	}
	if len(opts.Key) > 0 {
		if err := t.SetKey(opts.Key...); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// ReadFile loads a CSV file via Read.
func ReadFile(path string, opts Options) (*table.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f, opts)
}

// Write serializes t as CSV with a header row. Null cells become empty.
func Write(w io.Writer, t *table.Table) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Schema().Names()); err != nil {
		return err
	}
	rec := make([]string, t.NumCols())
	for r := 0; r < t.NumRows(); r++ {
		for ci := 0; ci < t.NumCols(); ci++ {
			c := t.ColumnAt(ci)
			if c.IsNull(r) {
				rec[ci] = ""
			} else {
				rec[ci] = c.Value(r).Str()
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFile saves t as a CSV file. The file is fsynced before close, so a
// checkout that "succeeded" survives a power cut — without the sync, the
// data could still be sitting in the page cache when the machine dies,
// leaving a short or empty file behind a reported success.
func WriteFile(path string, t *table.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, t); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// inferType chooses the narrowest type that parses every non-empty cell of
// column ci: Bool ⊂ Int ⊂ Float ⊂ String.
func inferType(rows [][]string, ci int) table.Type {
	isInt, isFloat, isBool := true, true, true
	seen := false
	for _, rec := range rows {
		if ci >= len(rec) {
			continue
		}
		cell := strings.TrimSpace(rec[ci])
		if cell == "" {
			continue
		}
		seen = true
		low := strings.ToLower(cell)
		if low != "true" && low != "false" {
			isBool = false
		}
		num, ok := normalizeNumber(cell)
		if !ok {
			isInt, isFloat = false, false
		} else {
			if _, err := strconv.ParseInt(num, 10, 64); err != nil {
				isInt = false
			}
			if _, err := strconv.ParseFloat(num, 64); err != nil {
				isFloat = false
			}
		}
		if !isBool && !isFloat {
			return table.String
		}
	}
	switch {
	case !seen:
		return table.String
	case isBool:
		return table.Bool
	case isInt:
		return table.Int
	case isFloat:
		return table.Float
	default:
		return table.String
	}
}

// normalizeNumber strips currency symbols, thousands separators, percent
// signs, and surrounding parentheses (accounting negatives). It reports
// whether the remainder looks like a number candidate.
func normalizeNumber(s string) (string, bool) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "(") && strings.HasSuffix(s, ")") {
		neg = true
		s = s[1 : len(s)-1]
	}
	s = strings.TrimPrefix(s, "$")
	s = strings.TrimSuffix(s, "%")
	s = strings.ReplaceAll(s, ",", "")
	s = strings.TrimSpace(s)
	if s == "" {
		return "", false
	}
	for _, r := range s {
		if (r < '0' || r > '9') && r != '.' && r != '-' && r != '+' && r != 'e' && r != 'E' {
			return "", false
		}
	}
	if neg {
		s = "-" + s
	}
	return s, true
}

// ParseCell converts one CSV cell to a Value of the target type, exactly as
// Read does for a typed column: cells are whitespace-trimmed, empty cells
// become nulls, and numeric decorations (currency, separators, percent) are
// normalized away. Exported so the delta-native diff path can turn delta-op
// cell texts into the same Values a checkout of the child snapshot yields.
func ParseCell(cell string, t table.Type) (table.Value, error) {
	cell = strings.TrimSpace(cell)
	if cell == "" {
		return table.Null(t), nil
	}
	switch t {
	case table.Int:
		num, ok := normalizeNumber(cell)
		if !ok {
			return table.Value{}, fmt.Errorf("cannot parse %q as int", cell)
		}
		x, err := strconv.ParseInt(num, 10, 64)
		if err != nil {
			return table.Value{}, fmt.Errorf("cannot parse %q as int", cell)
		}
		return table.I(x), nil
	case table.Float:
		num, ok := normalizeNumber(cell)
		if !ok {
			return table.Value{}, fmt.Errorf("cannot parse %q as float", cell)
		}
		x, err := strconv.ParseFloat(num, 64)
		if err != nil {
			return table.Value{}, fmt.Errorf("cannot parse %q as float", cell)
		}
		return table.F(x), nil
	case table.Bool:
		x, err := strconv.ParseBool(strings.ToLower(cell))
		if err != nil {
			return table.Value{}, fmt.Errorf("cannot parse %q as bool", cell)
		}
		return table.B(x), nil
	default:
		return table.S(cell), nil
	}
}
