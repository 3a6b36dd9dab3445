package table

// MemBytes estimates the resident memory of the column's payload and lazy
// encodings, in bytes. It is an accounting estimate (slice headers, map
// internals, and allocator slack are approximated by flat per-element
// overheads), not an exact measurement — its job is to let a shared cache
// budget compare entries consistently, so the same estimator is used on the
// way in and on the way out.
func (c *Column) MemBytes() int64 {
	const strOverhead = 16 // string header
	n := int64(len(c.Name)) + strOverhead
	n += int64(len(c.floats)) * 8
	n += int64(len(c.ints)) * 8
	n += int64(len(c.bools))
	n += int64(len(c.nulls))
	for _, s := range c.strs {
		n += int64(len(s)) + strOverhead
	}
	// The lazy encodings are built under mu by concurrent readers; size them
	// under the same lock.
	c.mu.Lock()
	defer c.mu.Unlock()
	n += int64(len(c.codes)) * 4
	n += int64(len(c.fview)) * 8
	for _, s := range c.dict {
		n += int64(len(s)) + strOverhead
	}
	return n
}

// MemBytes estimates the table's resident memory in bytes: every column's
// payload plus the key declaration. See Column.MemBytes for the estimate's
// contract.
func (t *Table) MemBytes() int64 {
	const strOverhead = 16
	var n int64 = 64 // struct + slice headers
	for _, c := range t.cols {
		n += c.MemBytes()
	}
	for _, k := range t.key {
		n += int64(len(k)) + strOverhead
	}
	return n
}
