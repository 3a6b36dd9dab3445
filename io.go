package charles

import "charles/internal/csvio"

// LoadCSV reads a CSV file into a table with automatic type inference
// (currency and percent decorations are handled) and declares the given
// primary-key columns.
func LoadCSV(path string, key ...string) (*Table, error) {
	return csvio.ReadFile(path, csvio.Options{Key: key})
}

// SaveCSV writes a table to a CSV file with a header row.
func SaveCSV(path string, t *Table) error {
	return csvio.WriteFile(path, t)
}
