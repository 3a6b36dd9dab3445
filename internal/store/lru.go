package store

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// Cache is the program's one LRU: a size-bounded cache keyed by string
// whose misses are filled through Do, once per key however many callers
// ask at the same time. The store keeps four — decoded tables behind
// Checkout, reconstructed blobs behind Blob, decoded change sets behind
// Changes, diff answers behind DiffResult — and the server one, of engine
// results. Cached values are the cache's own: table callers clone on the
// way out (so a hit can never hand two callers aliased mutable buffers),
// every other caller treats the value as immutable. The zero capacity is
// normalized to 1.
//
// A cache may additionally participate in a shared Budget: each admitted
// entry is charged its sizeOf estimate into the budget, which keeps one
// recency order across every participating cache and calls back (via
// dropElem) to evict the globally coldest entries when the byte cap is
// exceeded. The entry-count capacity and the byte budget both apply.
type Cache[V any] struct {
	cap    int
	sizeOf func(V) int64 // nil = entries are not byte-accounted
	budget *Budget       // nil = no shared budget

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	calls map[string]*call[V] // fills in flight

	disabled                            bool // set by disable(): add becomes a no-op (Store.Close)
	hits, misses, executions, evictions int64
}

type lruEntry[V any] struct {
	id  string
	val V
	bh  *list.Element // budget handle (nil until charged, or uncharged)
}

// call is one fill in flight: its waiters block on done, then read val and
// err.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// errPanicked is what waiters of a fill that panicked observe.
var errPanicked = errors.New("cache: computation panicked")

// NewCache creates a cache of at most capacity entries, each charged its
// sizeOf estimate into budget (both may be nil for a plain count-bounded
// cache).
func NewCache[V any](capacity int, sizeOf func(V) int64, budget *Budget) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[V]{
		cap: capacity, sizeOf: sizeOf, budget: budget,
		ll: list.New(), items: map[string]*list.Element{}, calls: map[string]*call[V]{},
	}
}

// Do returns the cached value for key, or computes it once — no matter how
// many goroutines ask concurrently. hit reports whether the value came from
// the cache without waiting on any computation; a caller that joined a fill
// in flight counts as a miss. Errors reach every waiter but are never
// cached, so a transient failure does not poison the key. No compute may
// call Do on its own cache for its own key: it would wait on itself.
//
// Every caller passes its own compute, which checks its own request's
// context before working. So when the computation a waiter joined fails
// with a context error, the computing request gave up, not the
// computation: the waiter retries with its own compute, which either
// finishes the work or, if the waiter's context has ended too, fails at
// once with the waiter's own error.
func (c *Cache[V]) Do(key string, compute func() (V, error)) (val V, hit bool, err error) {
	// Singleflight cannot defer-scope this lock: it must be released before
	// blocking on an in-flight call (or running compute), and every exit path
	// below unlocks explicitly first.
	c.mu.Lock() //lint:allow lockhygiene singleflight unlocks before blocking on the in-flight call
	if el, ok := c.items[key]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		ent := el.Value.(*lruEntry[V])
		v, bh := ent.val, ent.bh
		c.mu.Unlock()
		c.budget.touch(bh)
		return v, true, nil
	}
	c.misses++
	if cl, ok := c.calls[key]; ok {
		c.mu.Unlock()
		<-cl.done
		if errors.Is(cl.err, context.Canceled) || errors.Is(cl.err, context.DeadlineExceeded) {
			return c.Do(key, compute)
		}
		return cl.val, false, cl.err
	}
	cl := &call[V]{done: make(chan struct{}), err: errPanicked} // err is overwritten unless compute panics
	c.calls[key] = cl
	c.executions++
	c.mu.Unlock()

	// The deferred cleanup runs even if compute panics (net/http recovers
	// handler panics): waiters are released with errPanicked and the key is
	// freed for the next attempt, instead of deadlocking forever. The value
	// is cached before the call is forgotten, so a caller arriving in
	// between hits instead of computing again.
	defer func() {
		if cl.err == nil {
			c.add(key, cl.val)
		}
		func() {
			c.mu.Lock()
			defer c.mu.Unlock()
			delete(c.calls, key)
		}()
		close(cl.done)
	}()
	cl.val, cl.err = compute()
	return cl.val, false, cl.err
}

// peek returns the cached value for id, leaving its recency and the
// counters alone: a probe that fills nothing on a miss is not a cache
// request.
func (c *Cache[V]) peek(id string) (V, bool) {
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
func (c *Cache[V]) add(id string, v V) {
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
			c.evictions++
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
func (c *Cache[V]) dropElem(id string, el *list.Element) {
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
func (c *Cache[V]) purge() {
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
// Store.Close path: a fill that finishes after Close must not repopulate
// (and re-charge) a cache whose store has been closed.
func (c *Cache[V]) disable() {
	func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.disabled = true
	}()
	c.purge()
}

// Stats snapshots the counters.
func (c *Cache[V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Executions: c.executions, Evictions: c.evictions,
		Entries: c.ll.Len(), Capacity: c.cap,
	}
}
