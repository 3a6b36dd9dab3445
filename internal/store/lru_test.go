package store

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"charles/internal/gen"
)

// TestCacheEviction checks the LRU bound holds and evictions are counted.
func TestCacheEviction(t *testing.T) {
	c := NewCache[any](2, nil, nil)
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, hit, _ := c.Do(key, func() (any, error) { return i, nil }); hit {
			t.Errorf("fresh key %s hit", key)
		}
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 2 {
		t.Errorf("stats = %+v, want 2 entries / 2 evictions", st)
	}
	// k3 is still resident, k0 was evicted.
	if _, hit, _ := c.Do("k3", func() (any, error) { return nil, nil }); !hit {
		t.Error("k3 should be resident")
	}
	if _, hit, _ := c.Do("k0", func() (any, error) { return 0, nil }); hit {
		t.Error("k0 should have been evicted")
	}
}

// TestCacheDoesNotCacheErrors checks a failed computation is retried.
func TestCacheDoesNotCacheErrors(t *testing.T) {
	c := NewCache[any](2, nil, nil)
	calls := 0
	f := func() (any, error) {
		calls++
		if calls == 1 {
			return nil, fmt.Errorf("transient")
		}
		return "ok", nil
	}
	if _, _, err := c.Do("k", f); err == nil {
		t.Fatal("first call should fail")
	}
	v, hit, err := c.Do("k", f)
	if err != nil || hit || v != "ok" {
		t.Fatalf("retry = (%v, %v, %v)", v, hit, err)
	}
	if _, hit, _ := c.Do("k", f); !hit {
		t.Error("successful value not cached")
	}
}

// TestCachePanicDoesNotDeadlock checks a panicking computation releases
// waiters and frees the key for a retry (net/http recovers handler panics,
// so without cleanup the key would be bricked until restart).
func TestCachePanicDoesNotDeadlock(t *testing.T) {
	c := NewCache[any](2, nil, nil)
	func() {
		defer func() { _ = recover() }()
		_, _, _ = c.Do("k", func() (any, error) { panic("engine bug") })
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, hit, err := c.Do("k", func() (any, error) { return "ok", nil })
		if err != nil || hit || v != "ok" {
			t.Errorf("retry after panic = (%v, %v, %v)", v, hit, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cache key deadlocked after panic")
	}
}

// TestConcurrentColdCheckoutParsesOnce pins the table cache's singleflight:
// on a freshly reopened store, concurrent cold checkouts of one version
// rebuild and parse it once, and every caller gets the same table.
func TestConcurrentColdCheckoutParsesOnce(t *testing.T) {
	snaps, err := gen.Chain(gen.ChainConfig{N: 2000, Steps: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids := commitChain(t, s, snaps)
	cold, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	head := ids[len(ids)-1]
	const readers = 4
	var (
		start = make(chan struct{})
		wg    sync.WaitGroup
		errs  [readers]error
	)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got, err := cold.Checkout(head)
			if err == nil && !got.Equal(snaps[len(snaps)-1]) {
				err = fmt.Errorf("checkout differs from the committed snapshot")
			}
			errs[i] = err
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("reader %d: %v", i, err)
		}
	}
	if got := cold.Stats().Parses; got != 1 {
		t.Errorf("%d concurrent cold checkouts parsed %d times, want 1", readers, got)
	}
}
