package store

import (
	"fmt"
	"testing"
)

// Used returns the currently charged byte total.
func (b *Budget) Used() int64 { return b.Stats().UsedBytes }

func TestBudgetAccounting(t *testing.T) {
	b := NewBudget(100)
	var evicted []string
	ins := func(name string, size int64) {
		t.Helper()
		_, ok := b.insert(size, func() { evicted = append(evicted, name) })
		if !ok {
			t.Fatalf("insert %s refused", name)
		}
	}
	ins("a", 40)
	ins("b", 40)
	if got := b.Used(); got != 80 {
		t.Fatalf("used = %d, want 80", got)
	}
	// Overflow evicts the least recently used (a) first.
	ins("c", 40)
	if len(evicted) != 1 || evicted[0] != "a" {
		t.Fatalf("evicted = %v, want [a]", evicted)
	}
	if got := b.Used(); got != 80 {
		t.Fatalf("used after eviction = %d, want 80", got)
	}
	st := b.Stats()
	if st.Entries != 2 || st.Evictions != 1 || st.CapBytes != 100 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBudgetTouchProtectsRecency(t *testing.T) {
	b := NewBudget(100)
	var evicted []string
	elA, _ := b.insert(40, func() { evicted = append(evicted, "a") })
	if _, ok := b.insert(40, func() { evicted = append(evicted, "b") }); !ok {
		t.Fatal("insert b refused")
	}
	b.touch(elA) // a is now most recent; overflow must evict b
	if _, ok := b.insert(40, func() { evicted = append(evicted, "c") }); !ok {
		t.Fatal("insert c refused")
	}
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Errorf("evicted = %v, want [b]", evicted)
	}
}

func TestBudgetReleaseIdempotent(t *testing.T) {
	b := NewBudget(100)
	el, _ := b.insert(60, func() {})
	b.release(el)
	b.release(el) // double release must not go negative
	if got := b.Used(); got != 0 {
		t.Errorf("used = %d, want 0", got)
	}
	b.touch(el) // touch after release must not resurrect
	if st := b.Stats(); st.Entries != 0 {
		t.Errorf("entries = %d, want 0", st.Entries)
	}
}

func TestBudgetRefusesOversized(t *testing.T) {
	b := NewBudget(100)
	if el, ok := b.insert(101, func() { t.Error("oversized entry evicted") }); ok || el != nil {
		t.Fatal("oversized entry admitted")
	}
	if got := b.Used(); got != 0 {
		t.Errorf("used = %d after refused insert", got)
	}
}

func TestNilBudgetIsUnlimited(t *testing.T) {
	var b *Budget
	el, ok := b.insert(1<<40, func() { t.Error("nil budget evicted") })
	if !ok || el != nil {
		t.Fatalf("nil budget insert = %v, %v", el, ok)
	}
	b.touch(nil)
	b.release(nil)
	if st := b.Stats(); st != (BudgetStats{}) {
		t.Errorf("nil budget stats = %+v", st)
	}
	if NewBudget(0) != nil || NewBudget(-5) != nil {
		t.Error("non-positive cap should mean nil (unlimited) budget")
	}
}

func TestSizedLRUChargesAndReleases(t *testing.T) {
	b := NewBudget(1000)
	c := NewCache(8, func(v []byte) int64 { return int64(len(v)) }, b)
	c.add("x", make([]byte, 300))
	c.add("y", make([]byte, 300))
	if got := b.Used(); got != 600 {
		t.Fatalf("used = %d, want 600", got)
	}
	// Refresh replaces the old charge instead of double counting.
	c.add("x", make([]byte, 100))
	if got := b.Used(); got != 400 {
		t.Fatalf("used after refresh = %d, want 400", got)
	}
	// Count-cap displacement releases the displaced entry's charge.
	small := NewCache(1, func(v []byte) int64 { return int64(len(v)) }, b)
	small.add("p", make([]byte, 100))
	small.add("q", make([]byte, 100))
	if got := b.Used(); got != 500 {
		t.Fatalf("used after displacement = %d, want 500 (400 + one 100-byte entry)", got)
	}
	c.purge()
	small.purge()
	if got := b.Used(); got != 0 {
		t.Fatalf("used after purge = %d, want 0", got)
	}
}

func TestBudgetEvictsAcrossCaches(t *testing.T) {
	// Two caches sharing one budget: filling the second one evicts the
	// first cache's entries — the global, cross-cache recency order that
	// gives a hub's shards one collective ceiling.
	b := NewBudget(500)
	c1 := NewCache(16, func(v []byte) int64 { return int64(len(v)) }, b)
	c2 := NewCache(16, func(v []byte) int64 { return int64(len(v)) }, b)
	for i := 0; i < 4; i++ {
		c1.add(fmt.Sprintf("a%d", i), make([]byte, 100))
	}
	for i := 0; i < 4; i++ {
		c2.add(fmt.Sprintf("b%d", i), make([]byte, 100))
	}
	if got := b.Used(); got > 500 {
		t.Fatalf("used = %d > cap 500", got)
	}
	if _, ok := c1.peek("a0"); ok {
		t.Error("globally coldest entry a0 survived cross-cache eviction")
	}
	if _, ok := c2.peek("b3"); !ok {
		t.Error("hottest entry b3 was evicted")
	}
	entries1 := c1.Stats().Entries
	entries2 := c2.Stats().Entries
	if entries1+entries2 != b.Stats().Entries {
		t.Errorf("cache entries %d+%d != budget entries %d", entries1, entries2, b.Stats().Entries)
	}
}

func TestDisabledCacheRefusesAdds(t *testing.T) {
	b := NewBudget(1000)
	c := NewCache(8, func(v []byte) int64 { return int64(len(v)) }, b)
	c.add("x", make([]byte, 100))
	c.disable()
	if got := b.Used(); got != 0 {
		t.Fatalf("used after disable = %d, want 0", got)
	}
	c.add("y", make([]byte, 100)) // racing late add: must stay uncharged
	if _, ok := c.peek("y"); ok {
		t.Error("disabled cache accepted an add")
	}
	if got := b.Used(); got != 0 {
		t.Errorf("used after late add = %d, want 0", got)
	}
}
