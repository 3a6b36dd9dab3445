package serve

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// Stats is a snapshot of the result cache's counters. Hits are lookups
// served from the LRU, misses are lookups that had to compute (or join an
// in-flight computation), and executions counts the computations actually
// run — with singleflight deduplication, N identical concurrent requests
// cost one execution. An execution is whatever the cached value took: one
// engine run for a summarize or timeline-step entry, a whole walk or
// maintained-timeline assembly for a timeline answer (whose steps are
// entries, and executions, of their own).
type Stats struct {
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Executions int64 `json:"executions"`
	Evictions  int64 `json:"evictions"`
	Entries    int   `json:"entries"`
	Capacity   int   `json:"capacity"`
}

// resultCache is a fixed-capacity LRU with singleflight deduplication:
// concurrent Do calls for the same key block on one computation instead of
// racing the engine N times. Errors are returned to every waiter but never
// cached, so a transient failure does not poison the key — and a waiter is
// never failed by another request's cancellation (see Do).
type resultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List               // front = most recently used
	items map[string]*list.Element // key -> *entry element
	calls map[string]*call         // in-flight computations

	hits, misses, executions, evictions int64
}

type entry struct {
	key string
	val any
}

type call struct {
	done chan struct{}
	val  any
	err  error
}

func newResultCache(capacity int) *resultCache {
	if capacity < 1 {
		capacity = 1
	}
	return &resultCache{
		cap:   capacity,
		ll:    list.New(),
		items: map[string]*list.Element{},
		calls: map[string]*call{},
	}
}

// Do returns the cached value for key, or computes it once — no matter how
// many goroutines ask concurrently. hit reports whether the value came from
// the LRU without waiting on any computation.
//
// Every caller passes its own compute, which checks its own request's
// context before working. So when the computation a waiter joined fails
// with a context error, the computing request gave up, not the
// computation: the waiter retries with its own compute, which either
// finishes the work or, if the waiter's context has ended too, fails at
// once with the waiter's own error.
func (c *resultCache) Do(key string, compute func() (any, error)) (val any, hit bool, err error) {
	// Singleflight cannot defer-scope this lock: it must be released before
	// blocking on an in-flight call (or running compute), and every exit path
	// below unlocks explicitly first.
	c.mu.Lock() //lint:allow lockhygiene singleflight unlocks before blocking on the in-flight call
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		c.mu.Unlock()
		return el.Value.(*entry).val, true, nil
	}
	c.misses++
	if cl, ok := c.calls[key]; ok {
		// Join the in-flight computation.
		c.mu.Unlock()
		<-cl.done
		if errors.Is(cl.err, context.Canceled) || errors.Is(cl.err, context.DeadlineExceeded) {
			return c.Do(key, compute)
		}
		return cl.val, false, cl.err
	}
	cl := &call{done: make(chan struct{})}
	cl.err = errPanicked // overwritten unless compute panics
	c.calls[key] = cl
	c.executions++
	c.mu.Unlock()

	// The deferred cleanup runs even if compute panics (net/http recovers
	// handler panics): waiters are released with errPanicked and the key is
	// freed for the next attempt, instead of deadlocking forever.
	defer func() {
		close(cl.done)
		c.mu.Lock()
		defer c.mu.Unlock()
		delete(c.calls, key)
		if cl.err == nil {
			c.insert(key, cl.val)
		}
	}()
	cl.val, cl.err = compute()
	return cl.val, false, cl.err
}

// errPanicked is what waiters of a computation that panicked observe.
var errPanicked = errors.New("serve: computation panicked")

// insert adds key→val, evicting the least recently used entry at capacity.
// Caller holds c.mu.
func (c *resultCache) insert(key string, val any) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*entry).val = val
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, val: val})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*entry).key)
		c.evictions++
	}
}

// Stats snapshots the counters.
func (c *resultCache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:       c.hits,
		Misses:     c.misses,
		Executions: c.executions,
		Evictions:  c.evictions,
		Entries:    c.ll.Len(),
		Capacity:   c.cap,
	}
}
