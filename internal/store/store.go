// Package store is a minimal bolt-on version store for relational
// snapshots — the substrate the paper's related work attributes to
// OrpheusDB ("bolt-on versioning for relational databases"). It keeps a
// lineage of table versions, content-addressed by a SHA-256 of their
// canonical CSV serialization, and integrates with the ChARLES engine so
// any two versions in the history can be diffed and semantically
// summarized.
//
// Storage is delta-encoded: each version is a gzip-compressed pack file
// holding either the full canonical CSV (an anchor) or the row-level
// changes — inserted, removed, and cell-patched rows keyed by the primary
// key — against its parent. Anchor snapshots recur every AnchorEvery
// commits so reconstruction chains stay bounded, and checkouts are served
// through a size-bounded LRU of decoded tables, so walking a version chain
// parses each snapshot at most once. Stores written by the legacy
// one-CSV-per-version layout are migrated to packs transparently on Open.
//
// Changes serves a version's decoded delta ops (its ChangeSet). A change
// query between any two versions (DiffResult) aligns their checkouts, so
// its answer does not depend on how the versions were packed; answers are
// memoized.
//
// A Store is safe for concurrent use: reads (Checkout, Get, Log, Lineage,
// Diff, Summarize) take a shared lock, Commit takes an exclusive lock, and
// the expensive summarization engine runs outside the lock entirely — so a
// long Summarize never blocks commits. Persistence happens under the write
// lock, serializing manifest updates.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"charles/internal/core"
	"charles/internal/csvio"
	"charles/internal/diff"
	"charles/internal/table"
	"charles/internal/vfs"
)

// ErrNotFound is returned for unknown version ids.
var ErrNotFound = errors.New("store: version not found")

// ErrLineageConflict is returned by Commit when content addressing dedups
// to an existing version with a different parent: the
// caller asked for a lineage the store cannot honor without rewriting
// history, so the conflict is reported instead of silently returning a
// version with different ancestry.
var ErrLineageConflict = errors.New("store: lineage conflict")

// ErrStoreClosed is returned by every operation on a store after Close.
// Closing purges (and stops refilling) all of the store's caches, so a Hub
// can evict an idle shard and actually get its memory back — a handle that
// escaped eviction fails loudly instead of silently resurrecting cache
// entries the budget no longer accounts for.
var ErrStoreClosed = errors.New("store: store is closed")

// ErrCorruptStore is returned (wrapped, with the offending version id) when
// a version's on-disk data is missing, unreadable, or inconsistent with the
// manifest — a store that would previously fail with an anonymous IO error,
// or worse, skip the version. Nothing is silently dropped: the caller
// learns exactly which version is damaged.
var ErrCorruptStore = errors.New("store: corrupt store")

// corruptf builds an ErrCorruptStore-typed error. Every error *constructed*
// on a read/decode path goes through it (machine-enforced by the corrupterr
// analyzer), so errors.Is(err, ErrCorruptStore) holds on every way damaged
// data can surface.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorruptStore}, args...)...)
}

// corruptVersion tags err with the offending version id, establishing the
// ErrCorruptStore chain if the inner error is not already typed (an os-level
// read failure) and preserving it without re-prefixing if it is (a decode
// helper's corruptf error).
func corruptVersion(id string, err error) error {
	if errors.Is(err, ErrCorruptStore) {
		return fmt.Errorf("version %s: %w", id, err)
	}
	return corruptf("version %s: %v", id, err)
}

// DefaultAnchorEvery is the default anchor interval: a delta chain reaching
// this length is cut by storing the next commit as a full snapshot.
const DefaultAnchorEvery = 8

// DefaultTableCache is the default Checkout LRU capacity (decoded tables).
const DefaultTableCache = 32

// storeFormat tags the v2 (pack-backed) manifest.
const storeFormat = "charles-store/2"

// Options tune a store opened with OpenWith.
type Options struct {
	// AnchorEvery bounds delta chains: a commit whose chain back to the
	// nearest full snapshot would reach this length is stored full instead.
	// 1 stores every version as a full pack (the legacy behavior, minus the
	// compression); 0 means DefaultAnchorEvery.
	AnchorEvery int
	// TableCache is the Checkout LRU capacity in decoded tables
	// (0 means DefaultTableCache).
	TableCache int
	// FS is the filesystem persistence goes through (nil means the real
	// OS filesystem with full fsync discipline). The seam exists for
	// fault-injection testing: internal/faultfs implements it with
	// simulated torn writes, rename failures, and power-cut truncation.
	FS vfs.FS
	// Budget, when non-nil, byte-accounts every cache entry (decoded
	// tables, reconstructed blobs, change sets, diff answers) into a
	// shared memory budget. The Hub hands every shard the same budget, so
	// N open stores share one cap instead of multiplying it. TableCache
	// still bounds entry counts; the budget bounds bytes.
	Budget *Budget
}

func (o Options) withDefaults() Options {
	if o.AnchorEvery <= 0 {
		o.AnchorEvery = DefaultAnchorEvery
	}
	if o.TableCache <= 0 {
		o.TableCache = DefaultTableCache
	}
	if o.FS == nil {
		o.FS = vfs.OS{}
	}
	return o
}

// Version describes one committed snapshot.
type Version struct {
	ID      string   `json:"id"`
	Parent  string   `json:"parent,omitempty"`
	Message string   `json:"message"`
	Seq     int      `json:"seq"` // commit order, 1-based
	Key     []string `json:"key"`
	Rows    int      `json:"rows"`
	Cols    int      `json:"cols"`
}

// manifestV2 is the on-disk manifest: version metadata plus the pack index
// (kind, base, depth, sizes) the reconstruction planner reads.
type manifestV2 struct {
	Format   string               `json:"format"`
	Versions []*Version           `json:"versions"`
	Packs    map[string]*packInfo `json:"packs"`
}

// Store is a lineage of table versions. It is safe for concurrent use.
type Store struct {
	dir  string // "" = memory only
	opts Options
	fs   vfs.FS // opts.FS; every persistence operation goes through it

	mu       sync.RWMutex
	versions map[string]*Version
	packs    map[string]*packInfo
	mem      map[string][]byte // id -> encoded pack (memory-only stores)
	order    []string          // ids in commit order

	tables  *Cache[*table.Table] // decoded-table LRU behind Checkout
	blobs   *Cache[[]byte]       // reconstructed-blob LRU behind Blob
	changes *Cache[*ChangeSet]   // decoded delta-op LRU behind Changes
	results *Cache[*diff.Result] // change-query LRU behind DiffResult
	parses  atomic.Int64         // CSV parses performed (table-cache fills)
	closed  atomic.Bool          // set by Close; guard() rejects further ops

	// feed is the commit-notification fan-out (subscribe.go), published to
	// after Commit's exclusive section.
	feed fanout[CommitNote]

	// testCommitHook, when set (package tests only), runs during Commit's
	// off-lock encode phase — the seam the cross-shard concurrency pin
	// uses to hold one shard's commit mid-flight while another completes.
	testCommitHook func()
}

// Open creates a store with default options. With a non-empty dir, existing
// versions are loaded and future commits are persisted there; a legacy
// per-version-CSV directory is migrated to the pack layout.
func Open(dir string) (*Store, error) { return OpenWith(dir, Options{}) }

// OpenWith is Open with explicit anchor-interval and cache tuning.
func OpenWith(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	s := &Store{
		dir:      dir,
		opts:     opts,
		fs:       opts.FS,
		versions: map[string]*Version{},
		packs:    map[string]*packInfo{},
		tables:   NewCache(opts.TableCache, tableBytes, opts.Budget),
		blobs:    NewCache(opts.TableCache, blobBytes, opts.Budget),
		changes:  NewCache(opts.TableCache, changeSetBytes, opts.Budget),
		results:  NewCache(opts.TableCache, diffResultBytes, opts.Budget),
	}
	if dir == "" {
		s.mem = map[string][]byte{}
		return s, nil
	}
	if err := s.fs.MkdirAll(s.packDir()); err != nil {
		return nil, err
	}
	data, err := s.fs.ReadFile(filepath.Join(dir, "manifest.json"))
	if errors.Is(err, os.ErrNotExist) {
		return s, nil
	}
	if err != nil {
		return nil, err
	}
	trimmed := bytes.TrimLeftFunc(data, func(r rune) bool { return r == ' ' || r == '\t' || r == '\n' || r == '\r' })
	if len(trimmed) > 0 && trimmed[0] == '[' {
		if err := s.migrateLegacy(trimmed); err != nil {
			return nil, err
		}
		return s, nil
	}
	var m manifestV2
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: corrupt manifest: %w", err)
	}
	if m.Format != storeFormat {
		// Version skew, not damage: a newer tool wrote this store. Typing it
		// ErrCorruptStore would tell the operator to restore from backup when
		// the right fix is upgrading the binary.
		return nil, fmt.Errorf("store: manifest format %q unsupported", m.Format) //lint:allow corrupterr format skew is not corruption
	}
	sort.Slice(m.Versions, func(i, j int) bool { return m.Versions[i].Seq < m.Versions[j].Seq })
	for _, v := range m.Versions {
		pi := m.Packs[v.ID]
		if pi == nil {
			return nil, fmt.Errorf("%w: version %s has no pack index entry", ErrCorruptStore, v.ID)
		}
		if _, err := s.fs.Stat(s.packPath(v.ID)); err != nil {
			return nil, fmt.Errorf("%w: version %s: pack file: %v", ErrCorruptStore, v.ID, err)
		}
		s.versions[v.ID] = v
		s.packs[v.ID] = pi
		s.order = append(s.order, v.ID)
	}
	return s, nil
}

// Close releases the store's cache memory — every LRU is purged, its
// budget charges returned — and rejects all subsequent operations with
// ErrStoreClosed. In-flight operations that raced Close cannot repopulate
// the caches (the purge disables them), so a closed store holds no cache
// memory, ever. Close is idempotent; it never touches disk state, which
// stays valid for a later re-Open.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.tables.disable()
	s.blobs.disable()
	s.changes.disable()
	s.results.disable()
	s.feed.closeAll()
	return nil
}

// guard rejects operations on a closed store. Every public entry point
// that reads or writes store state calls it first.
func (s *Store) guard() error {
	if s.closed.Load() {
		return ErrStoreClosed
	}
	return nil
}

func (s *Store) packDir() string             { return filepath.Join(s.dir, "packs") }
func (s *Store) packPath(id string) string   { return filepath.Join(s.packDir(), id+".pack") }
func (s *Store) legacyPath(id string) string { return filepath.Join(s.dir, id+".csv") }

// migrateLegacy converts a legacy per-version-CSV directory (array-shaped
// manifest, one <id>.csv per version) into the pack layout: each version is
// re-encoded as a delta against its parent where possible, the v2 manifest
// is written, and the legacy CSV files are left in place for GC to reclaim.
// A version whose CSV is missing, unreadable, or hash-inconsistent with its
// id surfaces as ErrCorruptStore instead of being skipped.
func (s *Store) migrateLegacy(manifest []byte) error {
	var versions []*Version
	if err := json.Unmarshal(manifest, &versions); err != nil {
		return fmt.Errorf("store: corrupt manifest: %w", err)
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i].Seq < versions[j].Seq })
	blobs := make(map[string][]byte, len(versions))
	for _, v := range versions {
		blob, err := s.fs.ReadFile(s.legacyPath(v.ID))
		if err != nil {
			return fmt.Errorf("%w: version %s: blob: %v", ErrCorruptStore, v.ID, err)
		}
		if got := contentID(blob, v.Key); got != v.ID {
			return fmt.Errorf("%w: version %s: blob content hashes to %s", ErrCorruptStore, v.ID, got)
		}
		blobs[v.ID] = blob
	}
	for _, v := range versions {
		data, pi, err := s.buildPack(v, blobs[v.ID], s.versions[v.Parent], s.packs[v.Parent], blobs[v.Parent])
		if err != nil {
			return fmt.Errorf("store: migrating version %s: %w", v.ID, err)
		}
		if err := vfs.WriteAtomic(s.fs, s.packPath(v.ID), data); err != nil {
			return err
		}
		s.versions[v.ID] = v
		s.packs[v.ID] = pi
		s.order = append(s.order, v.ID)
	}
	return s.writeManifest()
}

// buildPack encodes a version's pack: a delta against its parent when the
// parent exists, shares the key declaration, stays under the anchor
// interval, and actually delta-encodes (same schema, unique keys) — and a
// full anchor otherwise. When a delta would be larger than the compressed
// full snapshot (pathological churn), the full pack wins. Parent state is
// passed in explicitly (version metadata, pack index entry, reconstructed
// blob — all immutable once committed), so encoding needs no store lock.
func (s *Store) buildPack(v *Version, blob []byte, pv *Version, pi *packInfo, pblob []byte) ([]byte, *packInfo, error) {
	meta := packMeta{Format: packFormat, ID: v.ID, Kind: packFull, Rows: v.Rows}
	info := &packInfo{Kind: packFull, Logical: int64(len(blob))}
	var deltaData []byte
	if v.Parent != "" && pv != nil && pi != nil &&
		pi.Depth+1 < s.opts.AnchorEvery && equalKey(pv.Key, v.Key) && pblob != nil {
		ops, ok, err := encodeDelta(pblob, blob, v.Key)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			dmeta := meta
			dmeta.Kind, dmeta.Base = packDelta, v.Parent
			deltaData, err = encodePack(dmeta, nil, ops)
			if err != nil {
				return nil, nil, err
			}
		}
	}
	fullData, err := encodePack(meta, blob, nil)
	if err != nil {
		return nil, nil, err
	}
	if deltaData != nil && len(deltaData) < len(fullData) {
		info.Kind, info.Base = packDelta, v.Parent
		info.Depth = pi.Depth + 1
		info.Size = int64(len(deltaData))
		return deltaData, info, nil
	}
	info.Size = int64(len(fullData))
	return fullData, info, nil
}

func equalKey(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Commit stores a snapshot and returns its version. The table's primary key
// declaration is recorded (and required — summarization needs it). Parent
// may be empty for a root version. Committing byte-identical content twice
// returns the existing version (content addressing) — unless the requested
// parent disagrees with the stored version's parent, which is reported as
// ErrLineageConflict rather than silently discarded.
func (s *Store) Commit(t *table.Table, parent, message string) (*Version, error) {
	if err := s.guard(); err != nil {
		return nil, err
	}
	if len(t.Key()) == 0 {
		return nil, fmt.Errorf("store: table has no primary key; SetKey before committing")
	}
	// Serialization, hashing, and pack encoding are all pure functions of
	// immutable inputs (the caller-owned table, the parent's already
	// committed pack chain), so they run outside the exclusive lock; only
	// validation and the map/order/persist mutation are locked.
	blob, err := canonicalCSV(t)
	if err != nil {
		return nil, err
	}
	id := contentID(blob, t.Key())

	// Phase 1 (shared lock): validate the parent and snapshot the parent
	// state the encoder needs. The closure scopes the critical section so
	// the lock is defer-released even if the lookups grow early returns.
	var (
		parentOK bool
		existing *Version
		pv       *Version
		ppi      *packInfo
	)
	func() {
		s.mu.RLock()
		defer s.mu.RUnlock()
		parentOK = parent == ""
		existing = s.versions[id]
		if parent != "" {
			if pv = s.versions[parent]; pv != nil {
				parentOK = true
				ppi = s.packs[parent]
			}
		}
	}()
	if !parentOK {
		return nil, fmt.Errorf("%w: parent %q", ErrNotFound, parent)
	}
	if existing != nil {
		// Early dedup/conflict: the content is already committed, so skip
		// the encode entirely. (Version records are immutable once
		// registered; phase 3 re-checks for commits racing this one.)
		if existing.Parent != parent {
			return nil, fmt.Errorf("%w: content %s already committed with parent %q, requested parent %q",
				ErrLineageConflict, id, existing.Parent, parent)
		}
		return existing, nil
	}

	// Phase 2 (no lock): fetch the parent blob — usually a blob-cache hit,
	// since chain workloads just committed it — and encode the pack. Packs
	// are immutable once committed, so nothing here can go stale.
	var pblob []byte
	if ppi != nil && pv != nil && ppi.Depth+1 < s.opts.AnchorEvery && equalKey(pv.Key, t.Key()) {
		if pblob, err = s.blobFor(parent); err != nil {
			return nil, err
		}
	}
	v := &Version{
		ID: id, Parent: parent, Message: message,
		Key:  t.Key(),
		Rows: t.NumRows(), Cols: t.NumCols(),
	}
	pack, pi, err := s.buildPack(v, blob, pv, ppi, pblob)
	if err != nil {
		return nil, err
	}
	if s.testCommitHook != nil {
		s.testCommitHook()
	}

	// Phase 3 (exclusive lock): re-check dedup/conflict — a concurrent
	// commit may have landed the same content meanwhile — then register
	// and persist. The closure scopes the critical section so the commit
	// notification below is published strictly after the lock is released.
	out, isNew, err := func() (*Version, bool, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if existing, ok := s.versions[id]; ok {
			if existing.Parent != parent {
				return nil, false, fmt.Errorf("%w: content %s already committed with parent %q, requested parent %q",
					ErrLineageConflict, id, existing.Parent, parent)
			}
			return existing, false, nil
		}
		v.Seq = len(s.order) + 1
		s.versions[id] = v
		s.packs[id] = pi
		s.order = append(s.order, id)
		if s.dir == "" {
			s.mem[id] = pack
		} else if err := s.persist(v, pack); err != nil {
			// Roll the registration back: a version that never reached disk
			// must not linger in memory, or a retry would dedup to it and
			// leave the manifest referencing a pack that was never written
			// (making the store unopenable after restart).
			delete(s.versions, id)
			delete(s.packs, id)
			s.order = s.order[:len(s.order)-1]
			return nil, false, err
		}
		// Warm the blob cache: a chain workload's next commit delta-encodes
		// against exactly this blob, and serve's CSV endpoint is likely to ask
		// for the newest version first.
		s.blobs.add(id, blob)
		return v, true, nil
	}()
	if err != nil {
		return nil, err
	}
	// Off-lock, and only for genuinely new versions: dedup'd commits (both
	// the phase-1 early return and the phase-3 re-check) notify nobody, so
	// subscribers see each version id at most once.
	if isNew {
		s.feed.publish(CommitNote{Version: out})
	}
	return out, nil
}

// persist is the two-phase durable commit. Phase one STAGES: the pack is
// atomically written (temp → fsync → rename → dir fsync) under its
// content-addressed name in packs/, where nothing references it yet — a
// crash here leaves an invisible orphan that GC reclaims, never a torn or
// half-visible version. Phase two PUBLISHES: the manifest, which is the
// sole source of truth for which versions exist, is atomically replaced
// with one that references the already-durable pack. A crash between the
// phases (or anywhere inside either) reopens as the previous manifest
// state plus at most one orphaned pack file.
func (s *Store) persist(v *Version, pack []byte) error {
	if err := vfs.WriteAtomic(s.fs, s.packPath(v.ID), pack); err != nil {
		return err
	}
	return s.writeManifest()
}

// writeManifest atomically replaces the v2 manifest: write-to-temp, fsync
// the file, rename over manifest.json, fsync the directory — so neither a
// crash mid-write (torn JSON) nor a power cut right after the rename (the
// rename itself not yet durable) can leave the store unopenable or roll it
// back to a state referencing missing packs. Caller holds the write lock
// (or is single-threaded in Open).
func (s *Store) writeManifest() error {
	m := manifestV2{Format: storeFormat, Packs: s.packs}
	for _, id := range s.order {
		m.Versions = append(m.Versions, s.versions[id])
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return vfs.WriteAtomic(s.fs, filepath.Join(s.dir, "manifest.json"), data)
}

// packLink is one step of a reconstruction plan: the pack to decode and the
// metadata needed to apply it.
type packLink struct {
	id   string
	mem  []byte // encoded pack for memory stores (nil on disk stores)
	key  []string
	rows int
}

// chainLocked plans the reconstruction of id: the pack chain from id back
// to its nearest full anchor (id first). Caller holds s.mu (read or write).
func (s *Store) chainLocked(id string) ([]packLink, error) {
	var chain []packLink
	cur := id
	for {
		v, vok := s.versions[cur]
		pi, pok := s.packs[cur]
		if !vok || !pok {
			return nil, fmt.Errorf("%w: version %s: pack chain references unknown version %s", ErrCorruptStore, id, cur)
		}
		chain = append(chain, packLink{id: cur, mem: s.mem[cur], key: v.Key, rows: v.Rows})
		if pi.Kind == packFull {
			return chain, nil
		}
		if pi.Base == "" || len(chain) > len(s.packs) {
			return nil, fmt.Errorf("%w: version %s: delta chain is cyclic or unanchored", ErrCorruptStore, id)
		}
		cur = pi.Base
	}
}

// reconstruct materializes the canonical CSV blob of chain[0] by applying
// the chain's deltas forward, starting from base: the blob of the version
// just below chain's last link, or nil when that last link is the anchor to
// decode. It takes no locks: pack files and memory pack slices are
// immutable once committed.
func (s *Store) reconstruct(chain []packLink, base []byte) ([]byte, error) {
	blob := base
	for i := len(chain) - 1; i >= 0; i-- {
		link := chain[i]
		data := link.mem
		if data == nil {
			var err error
			data, err = s.fs.ReadFile(s.packPath(link.id))
			if err != nil {
				return nil, fmt.Errorf("%w: version %s: pack file: %v", ErrCorruptStore, link.id, err)
			}
		}
		meta, body, err := decodePack(data)
		if err != nil {
			return nil, corruptVersion(link.id, err)
		}
		if meta.ID != link.id {
			return nil, fmt.Errorf("%w: version %s: pack holds %s", ErrCorruptStore, link.id, meta.ID)
		}
		switch meta.Kind {
		case packFull:
			blob = body
		case packDelta:
			if blob == nil {
				return nil, fmt.Errorf("%w: version %s: delta pack with no anchor below it", ErrCorruptStore, link.id)
			}
			ops, err := parseOps(body)
			if err != nil {
				return nil, corruptVersion(link.id, err)
			}
			blob, err = applyDelta(blob, ops, link.key, link.rows)
			if err != nil {
				return nil, corruptVersion(link.id, err)
			}
		default:
			return nil, fmt.Errorf("%w: version %s: unknown pack kind %q", ErrCorruptStore, link.id, meta.Kind)
		}
	}
	return blob, nil
}

// plan looks id up and snapshots its reconstruction chain under the shared
// lock, so the (slow, immutable-input) decode can run off-lock. Unknown ids
// report ErrNotFound before any corruption diagnosis.
func (s *Store) plan(id string) (*Version, []packLink, error) {
	var (
		v     *Version
		ok    bool
		chain []packLink
		err   error
	)
	func() {
		s.mu.RLock()
		defer s.mu.RUnlock()
		if v, ok = s.versions[id]; ok {
			chain, err = s.chainLocked(id)
		}
	}()
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if err != nil {
		return nil, nil, err
	}
	return v, chain, nil
}

// blobFor returns id's canonical blob through the blob LRU, reconstructing
// (and caching) it on a miss. A reconstruction starts from the nearest
// ancestor on id's pack chain whose blob is cached — it was hash-verified
// when it was cached — so a root → head walk applies one delta per version.
// The returned bytes are shared and immutable.
func (s *Store) blobFor(id string) ([]byte, error) {
	blob, _, err := s.blobs.Do(id, func() ([]byte, error) {
		v, chain, err := s.plan(id)
		if err != nil {
			return nil, err
		}
		var base []byte
		for i := 1; i < len(chain); i++ {
			if b, ok := s.blobs.peek(chain[i].id); ok {
				chain, base = chain[:i], b
				break
			}
		}
		// Pack data is immutable once committed, so decoding runs off-lock.
		blob, err := s.reconstruct(chain, base)
		if err != nil {
			return nil, err
		}
		// The version id IS the hash of the canonical blob, so re-hashing
		// catches any decodable-but-wrong reconstruction (tampered pack body,
		// codec regression) before the bytes are cached or served — not just
		// the packs that fail to decode.
		if got := contentID(blob, v.Key); got != id {
			return nil, fmt.Errorf("%w: version %s: reconstructed blob hashes to %s", ErrCorruptStore, id, got)
		}
		return blob, nil
	})
	return blob, err
}

// Blob returns the canonical CSV serialization stored under id,
// reconstructing it from the pack chain on a cache miss. The bytes are
// immutable once committed; callers must not modify them.
func (s *Store) Blob(id string) ([]byte, error) {
	if err := s.guard(); err != nil {
		return nil, err
	}
	return s.blobFor(id)
}

// tableFor returns id's decoded table through the table LRU, parsing (and
// caching) it on a miss; concurrent misses on one id parse it once. The
// returned table is the cache's shared instance: callers must treat it as
// strictly read-only (Checkout clones it before handing it out; DiffResult
// reads it in place).
func (s *Store) tableFor(id string) (*table.Table, error) {
	t, _, err := s.tables.Do(id, func() (*table.Table, error) {
		v, err := s.Get(id)
		if err != nil {
			return nil, err
		}
		blob, err := s.blobFor(id)
		if err != nil {
			return nil, err
		}
		s.parses.Add(1)
		t, err := csvio.Read(bytes.NewReader(blob), csvio.Options{Key: v.Key})
		if err != nil {
			// The blob already passed the content-hash check, so a parse
			// failure means the stored data itself is bad, not the request.
			return nil, fmt.Errorf("%w: version %s: %v", ErrCorruptStore, id, err)
		}
		return t, nil
	})
	return t, err
}

// Checkout reconstructs the table stored under id. Decoded tables are kept
// in an LRU, and every caller gets a private clone — a warm checkout does
// no CSV parsing, and no two callers ever share mutable buffers.
func (s *Store) Checkout(id string) (*table.Table, error) {
	t, err := s.tableFor(id)
	if err != nil {
		return nil, err
	}
	return t.Clone(), nil
}

// Get returns the version metadata for id.
func (s *Store) Get(id string) (*Version, error) {
	if err := s.guard(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.versions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return v, nil
}

// Log returns all versions in commit order.
func (s *Store) Log() []*Version {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Version, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.versions[id])
	}
	return out
}

// Lineage walks parents from id back to the root (inclusive, newest first).
// A parent cycle (only possible in a hand-edited or corrupt manifest —
// content addressing cannot create one) is reported as an error rather than
// looping forever.
func (s *Store) Lineage(id string) ([]*Version, error) {
	if err := s.guard(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []*Version
	visited := make(map[string]bool)
	for id != "" {
		if visited[id] {
			return nil, corruptf("lineage cycle at %q", id)
		}
		visited[id] = true
		v, ok := s.versions[id]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
		}
		out = append(out, v)
		id = v.Parent
	}
	return out, nil
}

// Chain returns the version chain ending at headID, oldest first (root →
// head, inclusive) — the walking order of timeline summarization, which
// steps through consecutive (parent, child) pairs.
func (s *Store) Chain(headID string) ([]*Version, error) {
	lineage, err := s.Lineage(headID)
	if err != nil {
		return nil, err
	}
	out := make([]*Version, len(lineage))
	for i, v := range lineage {
		out[len(lineage)-1-i] = v
	}
	return out, nil
}

// Head returns the most recently committed version (ErrNotFound when the
// store is empty) — the default timeline endpoint.
func (s *Store) Head() (*Version, error) {
	if err := s.guard(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.order) == 0 {
		return nil, fmt.Errorf("%w: store is empty", ErrNotFound)
	}
	return s.versions[s.order[len(s.order)-1]], nil
}

// Diff aligns two stored versions (by the snapshots' shared primary key).
func (s *Store) Diff(fromID, toID string) (*diff.Aligned, error) {
	src, err := s.Checkout(fromID)
	if err != nil {
		return nil, err
	}
	tgt, err := s.Checkout(toID)
	if err != nil {
		return nil, err
	}
	return diff.Align(src, tgt)
}

// Summarize runs the ChARLES engine between two stored versions.
func (s *Store) Summarize(fromID, toID string, opts core.Options) ([]core.Ranked, error) {
	a, err := s.Diff(fromID, toID)
	if err != nil {
		return nil, err
	}
	return core.SummarizeAligned(a, opts)
}

// CacheStats is one Cache's counters: requests served from the cache,
// requests that had to fill (or joined a fill in flight), and the
// resident/capacity entry counts. Executions (fills run) and Evictions
// (entries the entry cap displaced; a Budget counts its own) are not in the
// store's /stats sections; the server reports both for its result cache.
type CacheStats struct {
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Executions int64 `json:"-"`
	Evictions  int64 `json:"-"`
	Entries    int   `json:"entries"`
	Capacity   int   `json:"capacity"`
}

// Stats reports the storage and cache state: how many packs are full
// anchors vs deltas, how many bytes the packs occupy against the logical
// (canonical CSV) bytes they represent, and every read cache's counters —
// the decoded-table LRU behind Checkout, the reconstructed-blob LRU
// behind Blob, the decoded delta-op LRU behind Changes, and the
// change-query answer LRU behind DiffResult. The flat Cache* fields
// mirror Tables for compatibility with pre-observability readers.
type Stats struct {
	Versions      int        `json:"versions"`
	FullPacks     int        `json:"fullPacks"`
	DeltaPacks    int        `json:"deltaPacks"`
	PackBytes     int64      `json:"packBytes"`
	LogicalBytes  int64      `json:"logicalBytes"`
	Compression   float64    `json:"compression"` // LogicalBytes / PackBytes
	CacheHits     int64      `json:"cacheHits"`
	CacheMisses   int64      `json:"cacheMisses"`
	Parses        int64      `json:"parses"` // CSV parses (each one table-cache computation)
	CacheEntries  int        `json:"cacheEntries"`
	CacheCapacity int        `json:"cacheCapacity"`
	Tables        CacheStats `json:"tables"`
	Blobs         CacheStats `json:"blobs"`
	Changes       CacheStats `json:"changes"`
	Results       CacheStats `json:"results"`
}

// Stats snapshots the store's storage and cache counters.
func (s *Store) Stats() Stats {
	var st Stats
	func() {
		s.mu.RLock()
		defer s.mu.RUnlock()
		st.Versions = len(s.order)
		for _, pi := range s.packs {
			if pi.Kind == packDelta {
				st.DeltaPacks++
			} else {
				st.FullPacks++
			}
			st.PackBytes += pi.Size
			st.LogicalBytes += pi.Logical
		}
	}()
	if st.PackBytes > 0 {
		st.Compression = float64(st.LogicalBytes) / float64(st.PackBytes)
	} else {
		// An empty store compresses nothing: report the identity ratio
		// rather than 0/0 (which a naive division would render as NaN —
		// not even valid JSON — in the /stats endpoint).
		st.Compression = 1.0
	}
	st.Tables = s.tables.Stats()
	st.Blobs = s.blobs.Stats()
	st.Changes = s.changes.Stats()
	st.Results = s.results.Stats()
	st.CacheHits, st.CacheMisses = st.Tables.Hits, st.Tables.Misses
	st.CacheEntries, st.CacheCapacity = st.Tables.Entries, st.Tables.Capacity
	st.Parses = s.parses.Load()
	return st
}

// GCReport summarizes what GC reclaimed.
type GCReport struct {
	LegacyFiles    int   `json:"legacyFiles"` // migrated per-version CSVs removed
	OrphanPacks    int   `json:"orphanPacks"` // pack files no manifest entry references
	TempFiles      int   `json:"tempFiles"`   // stale atomic-write temps from crashed publishes
	BytesReclaimed int64 `json:"bytesReclaimed"`
}

// GC removes storage the pack layout has superseded: legacy <id>.csv blobs
// left behind by migration, orphaned pack files (from rolled-back commits
// or crashes between the stage and publish phases) that no manifest entry
// references, and stale .tmp files a crashed atomic write left behind.
// Memory-only stores have nothing to collect.
func (s *Store) GC() (GCReport, error) {
	if err := s.guard(); err != nil {
		return GCReport{}, err
	}
	var rep GCReport
	if s.dir == "" {
		return rep, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return rep, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		switch {
		case strings.HasSuffix(name, ".csv"):
			id := strings.TrimSuffix(name, ".csv")
			if _, ok := s.versions[id]; !ok {
				continue // not ours: leave stray user files alone
			}
			info, err := e.Info()
			if err != nil {
				return rep, err
			}
			if err := s.fs.Remove(filepath.Join(s.dir, name)); err != nil {
				return rep, err
			}
			rep.LegacyFiles++
			rep.BytesReclaimed += info.Size()
		case strings.HasSuffix(name, ".tmp"):
			info, err := e.Info()
			if err != nil {
				return rep, err
			}
			if err := s.fs.Remove(filepath.Join(s.dir, name)); err != nil {
				return rep, err
			}
			rep.TempFiles++
			rep.BytesReclaimed += info.Size()
		}
	}
	packs, err := s.fs.ReadDir(s.packDir())
	if err != nil {
		return rep, err
	}
	for _, e := range packs {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		isTemp := strings.HasSuffix(name, ".tmp")
		if !isTemp && !strings.HasSuffix(name, ".pack") {
			continue
		}
		if !isTemp {
			if _, ok := s.packs[strings.TrimSuffix(name, ".pack")]; ok {
				continue
			}
		}
		info, err := e.Info()
		if err != nil {
			return rep, err
		}
		if err := s.fs.Remove(filepath.Join(s.packDir(), name)); err != nil {
			return rep, err
		}
		if isTemp {
			rep.TempFiles++
		} else {
			rep.OrphanPacks++
		}
		rep.BytesReclaimed += info.Size()
	}
	return rep, nil
}

// canonicalCSV serializes a table deterministically (rows sorted by primary
// key) so identical relations get identical ids regardless of row order.
func canonicalCSV(t *table.Table) ([]byte, error) {
	sorted, err := t.SortByKey()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := csvio.Write(&buf, sorted); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// contentID hashes the canonical blob and key declaration.
func contentID(blob []byte, key []string) string {
	h := sha256.New()
	h.Write(blob)
	for _, k := range key {
		h.Write([]byte{0})
		h.Write([]byte(k))
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
