package store

import (
	"container/list"
	"sync"

	"charles/internal/diff"
	"charles/internal/table"
)

// Budget is a shared byte-accounted memory budget for cache entries. Every
// participating Cache charges each admitted entry's estimated size into
// the budget and registers an evict callback; the budget keeps one global
// recency order across all of them, and when the cap is exceeded it evicts
// the globally least-recently-used entries — whichever cache, whichever
// shard, they live in. That is how a Hub gives N shards' table/blob/
// change-set/diff caches ONE memory ceiling instead of N.
//
// A nil *Budget is valid and means "unlimited": every method is nil-safe,
// so single-store setups pay nothing.
//
// Lock ordering: a cache's mu is always acquired before the budget's mu
// (caches call in while holding their lock via release, and the budget
// never calls a cache back while holding its own lock — evict callbacks
// run after it unlocks), so the two can never deadlock.
type Budget struct {
	capBytes int64

	mu        sync.Mutex
	used      int64
	ll        *list.List // *budgetEntry; front = most recently used
	evictions int64
}

// budgetEntry is one charged cache entry: its accounted size and the
// callback that detaches it from its owning cache. gone marks entries
// already released or evicted, making release idempotent — the budget and
// the owning cache may both try to let go of the same entry.
type budgetEntry struct {
	size  int64
	gone  bool
	evict func()
}

// NewBudget creates a budget capped at capBytes. A non-positive cap
// returns nil — the unlimited budget.
func NewBudget(capBytes int64) *Budget {
	if capBytes <= 0 {
		return nil
	}
	return &Budget{capBytes: capBytes, ll: list.New()}
}

// insert charges one entry and returns its handle, evicting the globally
// least-recently-used entries (via their callbacks, after the lock is
// released) until the total is back under the cap. An entry bigger than
// the whole cap is refused (nil handle, admitted=false): admitting it
// could never satisfy the invariant, so the caller must not cache it.
func (b *Budget) insert(size int64, evict func()) (*list.Element, bool) {
	if b == nil {
		return nil, true
	}
	if size > b.capBytes {
		return nil, false
	}
	var victims []*budgetEntry
	var el *list.Element
	func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		el = b.ll.PushFront(&budgetEntry{size: size, evict: evict})
		b.used += size
		for b.used > b.capBytes {
			last := b.ll.Back()
			if last == nil || last == el {
				break // cannot evict the entry being admitted
			}
			e := last.Value.(*budgetEntry)
			e.gone = true
			b.ll.Remove(last)
			b.used -= e.size
			b.evictions++
			victims = append(victims, e)
		}
	}()
	// Run the evictions off-lock: each callback takes its own cache's lock,
	// and holding b.mu across that would invert the cache→budget order.
	for _, v := range victims {
		v.evict()
	}
	return el, true
}

// touch refreshes an entry's recency. Nil-safe both ways (no budget, entry
// never admitted).
func (b *Budget) touch(el *list.Element) {
	if b == nil || el == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !el.Value.(*budgetEntry).gone {
		b.ll.MoveToFront(el)
	}
}

// release uncharges an entry (cache-side eviction, purge, refresh).
// Idempotent: releasing an entry the budget already evicted is a no-op.
func (b *Budget) release(el *list.Element) {
	if b == nil || el == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := el.Value.(*budgetEntry)
	if e.gone {
		return
	}
	e.gone = true
	b.ll.Remove(el)
	b.used -= e.size
}

// BudgetStats is a snapshot of the budget's accounting.
type BudgetStats struct {
	UsedBytes int64 `json:"usedBytes"`
	CapBytes  int64 `json:"capBytes"` // 0 = unlimited
	Entries   int   `json:"entries"`
	Evictions int64 `json:"evictions"`
}

// Stats snapshots the budget counters. A nil budget reports an unlimited
// zero-usage budget.
func (b *Budget) Stats() BudgetStats {
	if b == nil {
		return BudgetStats{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return BudgetStats{UsedBytes: b.used, CapBytes: b.capBytes, Entries: b.ll.Len(), Evictions: b.evictions}
}

// The per-cache size estimators. Like table.MemBytes they are accounting
// estimates: flat per-element overheads stand in for headers and allocator
// slack, applied identically when charging and releasing.

func tableBytes(t *table.Table) int64 { return t.MemBytes() }

func blobBytes(b []byte) int64 { return int64(len(b)) + 24 }

func changeSetBytes(cs *ChangeSet) int64 {
	const strOverhead = 16
	n := int64(128)
	for _, c := range cs.Columns {
		n += int64(len(c)) + strOverhead
	}
	for _, k := range cs.Removed {
		n += int64(len(k)) + strOverhead
	}
	for _, ins := range cs.Inserted {
		n += int64(len(ins.Key)) + strOverhead
		for _, c := range ins.Cells {
			n += int64(len(c)) + strOverhead
		}
	}
	for _, p := range cs.Patched {
		n += int64(len(p.Key)) + strOverhead + int64(len(p.Cols))*8
		for _, v := range p.Vals {
			n += int64(len(v)) + strOverhead
		}
	}
	return n
}

func diffResultBytes(r *diff.Result) int64 {
	const strOverhead = 16
	n := int64(128)
	for _, c := range r.Columns {
		n += int64(len(c)) + strOverhead
	}
	for _, k := range r.Removed {
		n += int64(len(k)) + strOverhead
	}
	for _, k := range r.Inserted {
		n += int64(len(k)) + strOverhead
	}
	for _, ch := range r.Changes {
		n += int64(len(ch.Key)) + int64(len(ch.Attr)) + 2*strOverhead + 64
	}
	for _, c := range r.ChangedAttrs {
		n += int64(len(c)) + strOverhead
	}
	return n
}
