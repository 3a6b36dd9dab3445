package predicate

import "math/bits"

// Bitset is a fixed-size row mask packed 64 rows per word. It is the
// currency of the compiled-predicate layer: atoms materialize into bitsets
// once, and conjunctions become word-wise ANDs instead of per-row
// interface dispatch. Bits beyond the logical length are kept zero, so
// whole-word operations (Count, Equal) need no tail masking.
type Bitset []uint64

// NewBitset returns a zeroed bitset with capacity for n rows.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Test reports whether bit i is set.
func (b Bitset) Test(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set sets bit i.
func (b Bitset) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Zero clears every bit.
func (b Bitset) Zero() {
	for i := range b {
		b[i] = 0
	}
}

// Fill sets the first n bits and clears the rest.
func (b Bitset) Fill(n int) {
	for i := range b {
		b[i] = ^uint64(0)
	}
	b.trim(n)
}

// trim clears bits at positions ≥ n.
func (b Bitset) trim(n int) {
	if w := n >> 6; w < len(b) {
		if r := uint(n) & 63; r != 0 {
			b[w] &= (1 << r) - 1
			w++
		}
		for ; w < len(b); w++ {
			b[w] = 0
		}
	}
}

// CopyFrom overwrites b with o (equal lengths assumed).
func (b Bitset) CopyFrom(o Bitset) { copy(b, o) }

// And intersects b with o in place.
func (b Bitset) And(o Bitset) {
	for i := range b {
		b[i] &= o[i]
	}
}

// AndNot removes o's bits from b in place.
func (b Bitset) AndNot(o Bitset) {
	for i := range b {
		b[i] &^= o[i]
	}
}

// Or unions o into b in place.
func (b Bitset) Or(o Bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

// Count returns the number of set bits.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Equal reports whether two bitsets have identical bits.
func (b Bitset) Equal(o Bitset) bool {
	if len(b) != len(o) {
		return false
	}
	for i, w := range b {
		if w != o[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn with every set bit index in ascending order.
func (b Bitset) ForEach(fn func(i int)) {
	for wi, w := range b {
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
