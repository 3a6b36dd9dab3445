package store

import (
	"container/list"
	"sync"
)

// lruCache is a size-bounded cache keyed by version id, shared by the
// decoded-table cache behind Checkout and the reconstructed-blob cache
// behind Blob. Cached values are the cache's own: table callers clone on
// the way out (so a hit can never hand two callers aliased mutable
// buffers), blob callers treat the bytes as immutable. The zero capacity
// is normalized to 1.
//
// A cache may additionally participate in a shared Budget: each admitted
// entry is charged its sizeOf estimate into the budget, which keeps one
// recency order across every participating cache and calls back (via
// dropElem) to evict the globally coldest entries when the byte cap is
// exceeded. The entry-count capacity and the byte budget both apply.
type lruCache[V any] struct {
	cap    int
	sizeOf func(V) int64 // nil = entries are not byte-accounted
	budget *Budget       // nil = no shared budget

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	disabled     bool // set by disable(): add becomes a no-op (Store.Close)
	hits, misses int64
}

type lruEntry[V any] struct {
	id  string
	val V
	bh  *list.Element // budget handle (nil until charged, or uncharged)
}

// newSizedLRU creates a cache whose entries are byte-accounted by sizeOf
// into the shared budget (both may be nil for a plain count-bounded cache).
func newSizedLRU[V any](capacity int, sizeOf func(V) int64, budget *Budget) *lruCache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache[V]{
		cap: capacity, sizeOf: sizeOf, budget: budget,
		ll: list.New(), items: map[string]*list.Element{},
	}
}

// get returns the cached value for id (the cache's instance — see the type
// comment for the ownership contract) and whether it was present.
func (c *lruCache[V]) get(id string) (V, bool) {
	var (
		val V
		ok  bool
		bh  *list.Element
	)
	func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		el, found := c.items[id]
		if !found {
			c.misses++
			return
		}
		c.hits++
		c.ll.MoveToFront(el)
		ent := el.Value.(*lruEntry[V])
		val, ok, bh = ent.val, true, ent.bh
	}()
	if ok {
		c.budget.touch(bh)
	}
	return val, ok
}

// peek returns the cached value for id like get, but leaves its recency and
// the hit/miss counters alone: a probe that fills nothing on a miss is not a
// cache request.
func (c *lruCache[V]) peek(id string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[id]; ok {
		return el.Value.(*lruEntry[V]).val, true
	}
	var zero V
	return zero, false
}

// add inserts (or refreshes) id's value, evicting the least recently used
// entries beyond capacity and charging the new entry into the shared
// budget. The caller hands over ownership: it must not mutate the value
// afterwards. A value bigger than the entire budget is returned to the
// caller's use but not cached at all — caching it could never respect the
// byte cap.
func (c *lruCache[V]) add(id string, v V) {
	var size int64
	if c.sizeOf != nil {
		size = c.sizeOf(v)
	}
	var (
		el       *list.Element
		released []*list.Element // budget handles of entries displaced here
		skip     bool
	)
	func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.disabled {
			skip = true
			return
		}
		if old, ok := c.items[id]; ok {
			// Refresh: swap the value and re-charge below (the size may have
			// changed); the old charge is released off-lock.
			c.ll.MoveToFront(old)
			ent := old.Value.(*lruEntry[V])
			ent.val = v
			released = append(released, ent.bh)
			ent.bh = nil
			el = old
			return
		}
		el = c.ll.PushFront(&lruEntry[V]{id: id, val: v})
		c.items[id] = el
		for c.ll.Len() > c.cap {
			last := c.ll.Back()
			c.ll.Remove(last)
			ent := last.Value.(*lruEntry[V])
			delete(c.items, ent.id)
			released = append(released, ent.bh)
		}
	}()
	for _, bh := range released {
		c.budget.release(bh)
	}
	if skip || c.budget == nil {
		return
	}
	// Charge the entry and attach the handle. The budget may evict it (or a
	// concurrent add may displace it) between these steps, so the attach
	// re-checks identity and releases the handle if the entry is gone.
	bh, admitted := c.budget.insert(size, func() { c.dropElem(id, el) })
	if !admitted {
		c.dropElem(id, el)
		return
	}
	var stale bool
	func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		cur, ok := c.items[id]
		if !ok || cur != el || cur.Value.(*lruEntry[V]).bh != nil {
			stale = true
			return
		}
		cur.Value.(*lruEntry[V]).bh = bh
	}()
	if stale {
		c.budget.release(bh)
	}
}

// dropElem removes one specific entry (identity-checked, so a re-added id
// is untouched). It is the budget's evict callback and runs with no budget
// lock held; the idempotent release covers the cache-initiated path.
func (c *lruCache[V]) dropElem(id string, el *list.Element) {
	var bh *list.Element
	func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		cur, ok := c.items[id]
		if !ok || cur != el {
			return
		}
		c.ll.Remove(el)
		delete(c.items, id)
		bh = el.Value.(*lruEntry[V]).bh
	}()
	c.budget.release(bh)
}

// purge drops every entry (counters are kept) and releases their budget
// charges. Repair uses it after rewriting the manifest, so no cache can
// serve data for a version that was just quarantined.
func (c *lruCache[V]) purge() {
	var released []*list.Element
	func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, el := range c.items {
			released = append(released, el.Value.(*lruEntry[V]).bh)
		}
		c.ll.Init()
		c.items = map[string]*list.Element{}
	}()
	for _, bh := range released {
		c.budget.release(bh)
	}
}

// disable purges the cache and makes every future add a no-op — the
// Store.Close path: a racing in-flight read must not repopulate (and
// re-charge) a cache whose store has been closed.
func (c *lruCache[V]) disable() {
	func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.disabled = true
	}()
	c.purge()
}

// stats snapshots the counters.
func (c *lruCache[V]) stats() (hits, misses int64, entries, capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len(), c.cap
}
