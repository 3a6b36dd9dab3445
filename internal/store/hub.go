package store

import (
	"container/list"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"charles/internal/table"
	"charles/internal/vfs"
)

// ErrHubClosed is returned by every operation on a hub after Close.
var ErrHubClosed = errors.New("store: hub is closed")

// ErrInvalidName rejects tenant/dataset components that could escape the
// hub's directory tree (path separators, "..", hidden/empty names). The hub
// builds shard paths by joining these components, so validation is the only
// thing standing between a request URL and a directory traversal.
var ErrInvalidName = errors.New("store: invalid tenant or dataset name")

// ErrUnknownDataset is returned when a read-side acquire names a dataset
// the hub has never seen: unlike Acquire, the read path must not invent an
// empty store (and a directory) for every typo'd URL.
var ErrUnknownDataset = errors.New("store: unknown dataset")

// DefaultMaxOpen is the default cap on simultaneously open shards.
const DefaultMaxOpen = 32

// HubOptions tune a hub opened with OpenHubWith.
type HubOptions struct {
	// MaxOpen caps how many shards stay open at once (0 means
	// DefaultMaxOpen). It is a soft cap: shards pinned by in-flight
	// requests are never evicted, so a burst touching more than MaxOpen
	// distinct datasets temporarily exceeds it; idle shards beyond the cap
	// are closed least-recently-used first.
	MaxOpen int
	// MemoryBudget, when positive, is the total byte budget shared by
	// every open shard's caches (decoded tables, blobs, change sets, diff
	// answers). One cap for the whole hub — opening more shards does not
	// multiply the memory ceiling. 0 means unlimited.
	MemoryBudget int64
	// Store configures each shard's Store. Store.Budget is overridden by
	// the hub's shared budget.
	Store Options
}

func (o HubOptions) withDefaults() HubOptions {
	if o.MaxOpen <= 0 {
		o.MaxOpen = DefaultMaxOpen
	}
	return o
}

// Hub is a namespace of pack stores: tenant/dataset → *Store, each shard in
// its own directory under the hub root with its own lock. Commits to
// different shards share no mutex — only the byte-accounted memory budget —
// so they proceed fully concurrently. Shards open lazily on first use and
// the least-recently-used idle shards are closed once more than MaxOpen are
// open. A Hub is safe for concurrent use.
type Hub struct {
	dir    string // "" = memory-only shards (tests)
	opts   HubOptions
	fs     vfs.FS
	budget *Budget // shared across every shard's caches; nil = unlimited

	// only marks a hub built by HubOf: its one shard, registered at
	// construction, is the only name it admits.
	only bool

	mu     sync.Mutex
	shards map[string]*shard // key = tenant + "/" + dataset
	ll     *list.List        // *shard recency; front = most recently used
	closed bool

	// feed is the hub-level commit feed (subscribe.go): the fan-in of every
	// open shard's store feed. Delivery never runs under the hub lock.
	feed fanout[HubCommitNote]
}

// shard is one open store plus its hub bookkeeping. refs counts in-flight
// acquisitions: only refs==0 shards are evictable. ready is closed once the
// opening goroutine has populated st/err, so concurrent acquirers of a
// shard being opened block on the channel, not on the hub lock.
type shard struct {
	key     string
	tenant  string
	dataset string

	ready chan struct{} // closed when open finished; then st/err are frozen
	st    *Store
	err   error

	el      *list.Element // position in Hub.ll (guarded by Hub.mu)
	refs    int           // guarded by Hub.mu
	commits atomic.Int64  // successful commits through Hub.Commit
}

// OpenHub opens (creating if needed) a hub rooted at dir with defaults.
func OpenHub(dir string) (*Hub, error) {
	return OpenHubWith(dir, HubOptions{})
}

// OpenHubWith opens a hub rooted at dir. An empty dir makes every shard
// memory-only (nothing persists — the test configuration). Shard stores
// live at dir/<tenant>/<dataset>/.
func OpenHubWith(dir string, opts HubOptions) (*Hub, error) {
	opts = opts.withDefaults()
	fs := opts.Store.FS
	if fs == nil {
		fs = vfs.OS{}
	}
	if dir != "" {
		if err := fs.MkdirAll(dir); err != nil {
			return nil, fmt.Errorf("store: create hub dir: %w", err)
		}
	}
	return &Hub{
		dir:    dir,
		opts:   opts,
		fs:     fs,
		budget: NewBudget(opts.MemoryBudget),
		shards: map[string]*shard{},
		ll:     list.New(),
	}, nil
}

// HubOf wraps an open store as a hub of one dataset, tenant/dataset: the
// only name it admits. Acquires and commits addressed to any other name
// fail with ErrUnknownDataset and create nothing. Commits made directly on
// st reach the hub feed, which closes when st is closed. The hub charges
// st's own memory budget; closing the hub closes st.
func HubOf(st *Store, tenant, dataset string) *Hub {
	h := &Hub{
		opts:   HubOptions{MaxOpen: 1},
		budget: st.opts.Budget,
		only:   true,
		shards: map[string]*shard{},
		ll:     list.New(),
	}
	sh := &shard{key: tenant + "/" + dataset, tenant: tenant, dataset: dataset, ready: make(chan struct{}), st: st}
	close(sh.ready)
	sh.el = h.ll.PushFront(sh)
	h.shards[sh.key] = sh
	go h.forwardShard(sh, st.Subscribe(0))
	return h
}

// validateName admits path-safe tenant/dataset components: ASCII letters,
// digits, '-', '_', '.', length 1..128, and no leading dot (which also
// rules out "." and "..").
func validateName(name string) error {
	if name == "" || len(name) > 128 || name[0] == '.' {
		return fmt.Errorf("%w: %q", ErrInvalidName, name)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '-' || r == '_' || r == '.':
		default:
			return fmt.Errorf("%w: %q", ErrInvalidName, name)
		}
	}
	return nil
}

// shardDir returns the shard's directory, or "" for a memory-only hub.
func (h *Hub) shardDir(tenant, dataset string) string {
	if h.dir == "" {
		return ""
	}
	return filepath.Join(h.dir, tenant, dataset)
}

// Acquire returns the shard store for tenant/dataset, opening (and, on
// first use, creating) it as needed, plus a release func the caller MUST
// call when done — a held shard is pinned against idle eviction. The
// returned store may be closed by the hub after release; re-acquire rather
// than retaining it.
func (h *Hub) Acquire(tenant, dataset string) (*Store, func(), error) {
	sh, err := h.acquire(tenant, dataset, true)
	if err != nil {
		return nil, nil, err
	}
	return sh.st, func() { h.release(sh) }, nil
}

// AcquireExisting is Acquire for read paths: a dataset that was never
// committed to is reported as ErrUnknownDataset instead of being created.
func (h *Hub) AcquireExisting(tenant, dataset string) (*Store, func(), error) {
	sh, err := h.acquire(tenant, dataset, false)
	if err != nil {
		return nil, nil, err
	}
	return sh.st, func() { h.release(sh) }, nil
}

func (h *Hub) acquire(tenant, dataset string, create bool) (*shard, error) {
	if !h.only {
		if err := validateName(tenant); err != nil {
			return nil, err
		}
		if err := validateName(dataset); err != nil {
			return nil, err
		}
	}
	key := tenant + "/" + dataset
	var (
		sh      *shard
		created bool
		errOut  error
	)
	func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.closed {
			errOut = ErrHubClosed
			return
		}
		if existing, ok := h.shards[key]; ok {
			existing.refs++
			h.ll.MoveToFront(existing.el)
			sh = existing
			return
		}
		if h.only {
			errOut = fmt.Errorf("%w: %s/%s", ErrUnknownDataset, tenant, dataset)
			return
		}
		sh = &shard{key: key, tenant: tenant, dataset: dataset, refs: 1, ready: make(chan struct{})}
		sh.el = h.ll.PushFront(sh)
		h.shards[key] = sh
		created = true
	}()
	if errOut != nil {
		return nil, errOut
	}
	if created {
		sh.st, sh.err = h.openShard(tenant, dataset, create)
		close(sh.ready)
		if sh.err != nil {
			// Un-register the failed shard so the next acquire retries
			// (e.g. the dataset gets created after a read-side miss).
			func() {
				h.mu.Lock()
				defer h.mu.Unlock()
				if cur, ok := h.shards[key]; ok && cur == sh {
					h.ll.Remove(sh.el)
					delete(h.shards, key)
				}
			}()
			return nil, sh.err
		}
		// Bridge the new shard's commit feed into the hub-level feed. The
		// forwarder exits when the shard store is closed (idle eviction or
		// hub shutdown closes the subscription channel); a re-opened shard
		// spawns a fresh one.
		go h.forwardShard(sh, sh.st.Subscribe(0))
		h.evictIdle()
		return sh, nil
	}
	<-sh.ready
	if sh.err != nil {
		// The opener already un-registered the shard; just drop our pin.
		func() {
			h.mu.Lock()
			defer h.mu.Unlock()
			sh.refs--
		}()
		return nil, sh.err
	}
	return sh, nil
}

// openShard opens one shard store, off the hub lock (store opening reads
// and possibly migrates the manifest — far too slow to serialize the hub).
func (h *Hub) openShard(tenant, dataset string, create bool) (*Store, error) {
	dir := h.shardDir(tenant, dataset)
	if dir == "" {
		if !create {
			return nil, fmt.Errorf("%w: %s/%s", ErrUnknownDataset, tenant, dataset)
		}
		return OpenWith("", h.storeOptions())
	}
	if !create {
		if _, err := h.fs.Stat(dir); err != nil {
			return nil, fmt.Errorf("%w: %s/%s", ErrUnknownDataset, tenant, dataset)
		}
	}
	return OpenWith(dir, h.storeOptions())
}

// storeOptions is the per-shard Options: the configured store options with
// the hub's shared budget substituted in.
func (h *Hub) storeOptions() Options {
	o := h.opts.Store
	o.Budget = h.budget
	return o
}

// release drops one acquisition pin and sweeps idle shards over the cap.
func (h *Hub) release(sh *shard) {
	func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		sh.refs--
	}()
	h.evictIdle()
}

// evictIdle closes least-recently-used shards with no holders until at
// most MaxOpen remain open. Store.Close purges the shard's caches, so the
// shared budget gets the memory back immediately.
func (h *Hub) evictIdle() {
	var victims []*Store
	func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.closed {
			return
		}
		for h.ll.Len() > h.opts.MaxOpen {
			var victim *list.Element
			for el := h.ll.Back(); el != nil; el = el.Prev() {
				if sh := el.Value.(*shard); sh.refs == 0 && sh.err == nil {
					victim = el
					break
				}
			}
			if victim == nil {
				return // everything over the cap is pinned; soft cap yields
			}
			sh := victim.Value.(*shard)
			h.ll.Remove(victim)
			delete(h.shards, sh.key)
			victims = append(victims, sh.st)
		}
	}()
	for _, st := range victims {
		st.Close()
	}
}

// Commit acquires the shard and commits t, bumping the shard's commit
// counter on success. The counters let tests (and /stats) pin that commit
// traffic to one shard makes progress independently of every other shard.
func (h *Hub) Commit(tenant, dataset string, t *table.Table, parent, message string) (*Version, error) {
	sh, err := h.acquire(tenant, dataset, true)
	if err != nil {
		return nil, err
	}
	defer h.release(sh)
	v, err := sh.st.Commit(t, parent, message)
	if err != nil {
		return nil, err
	}
	sh.commits.Add(1)
	return v, nil
}

// DatasetRef names one dataset in the hub.
type DatasetRef struct {
	Tenant  string `json:"tenant"`
	Dataset string `json:"dataset"`
}

// Datasets lists every dataset the hub knows: all tenant/dataset
// directories under the root, plus (for memory-only hubs) every open
// shard. Sorted by tenant then dataset.
func (h *Hub) Datasets() ([]DatasetRef, error) {
	seen := map[string]DatasetRef{}
	errOut := func() error {
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.closed {
			return ErrHubClosed
		}
		for _, sh := range h.shards {
			seen[sh.key] = DatasetRef{Tenant: sh.tenant, Dataset: sh.dataset}
		}
		return nil
	}()
	if errOut != nil {
		return nil, errOut
	}
	if h.dir != "" {
		tenants, err := h.fs.ReadDir(h.dir)
		if err != nil {
			return nil, fmt.Errorf("store: list hub dir: %w", err)
		}
		for _, te := range tenants {
			if !te.IsDir() || validateName(te.Name()) != nil {
				continue
			}
			dss, err := h.fs.ReadDir(filepath.Join(h.dir, te.Name()))
			if err != nil {
				return nil, fmt.Errorf("store: list tenant %s: %w", te.Name(), err)
			}
			for _, de := range dss {
				if !de.IsDir() || validateName(de.Name()) != nil {
					continue
				}
				seen[te.Name()+"/"+de.Name()] = DatasetRef{Tenant: te.Name(), Dataset: de.Name()}
			}
		}
	}
	refs := make([]DatasetRef, 0, len(seen))
	for _, r := range seen {
		refs = append(refs, r)
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Tenant != refs[j].Tenant {
			return refs[i].Tenant < refs[j].Tenant
		}
		return refs[i].Dataset < refs[j].Dataset
	})
	return refs, nil
}

// ShardStats is one open shard's stats as reported by HubStats.
type ShardStats struct {
	Tenant  string `json:"tenant"`
	Dataset string `json:"dataset"`
	Refs    int    `json:"refs"`
	Commits int64  `json:"commits"`
	Store   Stats  `json:"store"`
}

// HubStats snapshots the hub: which shards are open, their per-shard
// counters, and the shared memory budget's byte accounting.
type HubStats struct {
	OpenShards int          `json:"openShards"`
	MaxOpen    int          `json:"maxOpen"`
	Budget     BudgetStats  `json:"budget"`
	Shards     []ShardStats `json:"shards"`
}

// Stats snapshots the hub's shard table and budget accounting.
func (h *Hub) Stats() HubStats {
	type open struct {
		sh *shard
	}
	var opened []open
	st := HubStats{MaxOpen: h.opts.MaxOpen, Budget: h.budget.Stats()}
	func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		st.OpenShards = len(h.shards)
		for _, sh := range h.shards {
			opened = append(opened, open{sh})
		}
	}()
	for _, o := range opened {
		sh := o.sh
		select {
		case <-sh.ready:
		default:
			continue // still opening; skip rather than block stats
		}
		if sh.err != nil {
			continue
		}
		ss := ShardStats{
			Tenant: sh.tenant, Dataset: sh.dataset,
			Commits: sh.commits.Load(),
			Store:   sh.st.Stats(),
		}
		func() {
			h.mu.Lock()
			defer h.mu.Unlock()
			ss.Refs = sh.refs
		}()
		st.Shards = append(st.Shards, ss)
	}
	sort.Slice(st.Shards, func(i, j int) bool {
		if st.Shards[i].Tenant != st.Shards[j].Tenant {
			return st.Shards[i].Tenant < st.Shards[j].Tenant
		}
		return st.Shards[i].Dataset < st.Shards[j].Dataset
	})
	return st
}

// Budget returns the hub's shared memory budget (nil when unlimited).
func (h *Hub) Budget() *Budget { return h.budget }

// sweep runs fn against every dataset in the hub, one shard at a time,
// keyed by "tenant/dataset". Each shard's operation sees only that shard's
// directory — the store layer has no idea the hub exists — so a sweep can
// never cross shard boundaries.
func hubSweep[R any](h *Hub, fn func(*Store) (R, error)) (map[string]R, error) {
	refs, err := h.Datasets()
	if err != nil {
		return nil, err
	}
	out := make(map[string]R, len(refs))
	for _, r := range refs {
		st, release, err := h.Acquire(r.Tenant, r.Dataset)
		if err != nil {
			return out, fmt.Errorf("%s/%s: %w", r.Tenant, r.Dataset, err)
		}
		rep, err := fn(st)
		release()
		if err != nil {
			return out, fmt.Errorf("%s/%s: %w", r.Tenant, r.Dataset, err)
		}
		out[r.Tenant+"/"+r.Dataset] = rep
	}
	return out, nil
}

// VerifyAll verifies every dataset in the hub, shard by shard. The partial
// result map is returned even on error, so operators see how far the sweep
// got and which shard stopped it.
func (h *Hub) VerifyAll() (map[string]*VerifyReport, error) {
	return hubSweep(h, func(s *Store) (*VerifyReport, error) { return s.Verify() })
}

// RepairAll repairs every dataset in the hub, shard by shard.
func (h *Hub) RepairAll() (map[string]*RepairReport, error) {
	return hubSweep(h, func(s *Store) (*RepairReport, error) { return s.Repair() })
}

// GCAll garbage-collects every dataset in the hub, shard by shard.
func (h *Hub) GCAll() (map[string]GCReport, error) {
	return hubSweep(h, func(s *Store) (GCReport, error) { return s.GC() })
}

// Close closes every open shard (releasing all cache memory back to the
// budget) and rejects further hub operations with ErrHubClosed. Shards
// still pinned by in-flight requests are closed too: their holders get
// ErrStoreClosed, which is the contract during shutdown.
func (h *Hub) Close() error {
	var victims []*Store
	func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.closed {
			return
		}
		h.closed = true
		for _, sh := range h.shards {
			select {
			case <-sh.ready:
				if sh.err == nil {
					victims = append(victims, sh.st)
				}
			default:
				// Still opening: the opener holds a ref and will finish; its
				// store is brand new and unclosed, acceptable at shutdown.
			}
		}
		h.shards = map[string]*shard{}
		h.ll.Init()
	}()
	for _, st := range victims {
		st.Close()
	}
	h.feed.closeAll()
	return nil
}
