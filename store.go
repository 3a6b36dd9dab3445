package charles

import (
	"context"

	"charles/internal/diff"
	"charles/internal/history"
	"charles/internal/predicate"
	"charles/internal/store"
)

// VersionStore is a bolt-on lineage of table snapshots (OrpheusDB-style):
// commit versions, walk history, and summarize the change between any two
// of them. Versions persist as delta-encoded pack files with periodic full
// anchors, and checkouts are served through a table LRU. See OpenStore.
type VersionStore = store.Store

// Version describes one committed snapshot in a VersionStore.
type Version = store.Version

// StoreOptions tune a version store's anchor interval and checkout cache;
// HubOptions.Store applies them to every shard of a hub.
type StoreOptions = store.Options

// StoreStats reports a store's pack storage and checkout-cache counters.
type StoreStats = store.Stats

// GCReport summarizes what VersionStore.GC reclaimed.
type GCReport = store.GCReport

// VerifyReport is the result of VersionStore.Verify — an fsck-style walk
// that reconstructs every version from disk, re-hashes it against its
// content id, and re-parses it, bypassing all caches.
type VerifyReport = store.VerifyReport

// VerifyIssue is one problem Verify found with one version.
type VerifyIssue = store.VerifyIssue

// RepairReport summarizes what VersionStore.Repair changed: the versions
// dropped from the manifest and the files moved into quarantine/.
type RepairReport = store.RepairReport

// ErrCorruptStore is reported (wrapped, naming the version) when stored
// data is missing, unreadable, or inconsistent with the manifest.
var ErrCorruptStore = store.ErrCorruptStore

// OpenStore opens (or creates) a snapshot version store. With a non-empty
// directory versions persist across processes; with "" the store is
// memory-only. Legacy one-CSV-per-version directories are migrated to the
// pack layout on open.
func OpenStore(dir string) (*VersionStore, error) { return store.Open(dir) }

// ChangeSet is one version's decoded delta ops — removed keys, inserted
// rows, cell patches against its parent — served straight from the store's
// delta packs by VersionStore.Changes. Versions stored as full snapshots
// (anchors, roots) report Materialized=true instead of ops.
type ChangeSet = store.ChangeSet

// DiffResult is the answer to a change query between two snapshots: removed
// and inserted entity keys plus every modified cell of the common entities.
// DiffSnapshots computes it for two in-memory snapshots, and
// VersionStore.DiffResult for two stored versions by the same computation
// over their checkouts, so the answer does not depend on how the store
// packed them.
type DiffResult = diff.Result

// KeyedChange is one modified cell of a DiffResult, addressed by entity key.
type KeyedChange = diff.KeyedChange

// DiffSnapshots answers a change query between two in-memory snapshots:
// align them on their common entities and list removed/inserted keys plus
// modified cells at the given absolute tolerance. Snapshots with different
// schemas are refused. VersionStore.DiffResult gives the same answer for
// two stored versions.
func DiffSnapshots(src, tgt *Table, tol float64) (*DiffResult, error) {
	return diff.ResultFromPair(src, tgt, tol)
}

// MaterializeVersions checks the given version ids out in order. The store
// rebuilds each version from its nearest cached ancestor, so a cold root →
// head walk applies one delta and parses once per version, and warm
// versions are served from the store's table cache without parsing.
func MaterializeVersions(ctx context.Context, st *VersionStore, ids []string) ([]*Table, error) {
	return history.MaterializeChainContext(ctx, st, ids)
}

// TimelineMaintainer incrementally maintains a MultiTimeline over a growing
// version chain: it advances by exactly one engine step per new commit
// instead of re-walking the whole lineage — the "query answering under
// updates" discipline. Its timeline is bit-identical to SummarizeTimeline
// over the same versions.
type TimelineMaintainer = history.TimelineMaintainer

// AdvanceTimeline brings m to the head of the lineage ids (version ids root
// → head, at least 2) and reports whether it got there by extension: when
// m's head is on ids it is extended one engine step per later version;
// otherwise (m is nil, on another branch, or a step will not extend) a new
// maintainer is seeded over ids under base. m itself is never modified.
func AdvanceTimeline(ctx context.Context, m *TimelineMaintainer, st *VersionStore, ids []string, base Options) (*TimelineMaintainer, bool, error) {
	return history.Advance(ctx, m, st, ids, base, nil)
}

// CommitNote is one commit notification delivered on a VersionStore
// subscription (see VersionStore.Subscribe): the Version just committed.
type CommitNote = store.CommitNote

// StoreSubscription is a live feed of one store's commits. Delivery is
// non-blocking: a subscriber that falls behind has its oldest pending notes
// dropped (counted by Dropped) rather than stalling committers.
type StoreSubscription = store.Subscription

// HubCommitNote is one commit notification from a StoreHub subscription,
// naming the shard it happened in.
type HubCommitNote = store.HubCommitNote

// HubSubscription is a live feed of every shard's commits, fanned in by the
// hub; see StoreHub.Subscribe.
type HubSubscription = store.HubSubscription

// Predicate is a conjunctive condition over table attributes — the
// condition half of a CT (CT.Cond).
type Predicate = predicate.Predicate

// FilterTable returns the rows of t matching a textual condition
// ("edu = PhD && exp >= 3"). The grammar matches what the engine itself
// prints: conjunctions of =, !=, <, >=, and in(...) atoms.
func FilterTable(t *Table, condition string) (*Table, error) {
	p, err := predicate.Parse(condition, t)
	if err != nil {
		return nil, err
	}
	mask, err := p.Mask(t)
	if err != nil {
		return nil, err
	}
	return t.Filter(mask)
}

// StoreHub is a multi-tenant namespace of version stores: every
// tenant/dataset pair addresses an independent pack store (a shard) under
// one root directory. Shards open lazily, idle ones are closed LRU-first
// past the MaxOpen soft cap, and all shards' checkout/blob/change-set/
// diff-result caches charge one shared byte budget. Commits to different
// shards never block each other.
type StoreHub = store.Hub

// HubOptions tune a hub: the open-shard soft cap, the shared cache byte
// budget, and the per-shard store options.
type HubOptions = store.HubOptions

// HubStats is a hub-wide stats rollup: open shards, budget accounting, and
// one ShardStats per open shard.
type HubStats = store.HubStats

// ShardStats is one shard's slice of HubStats: its address, pin count,
// hub-level commit counter, and the underlying store's stats.
type ShardStats = store.ShardStats

// DatasetRef addresses one shard of a hub.
type DatasetRef = store.DatasetRef

// BudgetStats snapshots the accounting of a hub's shared byte budget
// (HubOptions.MemoryBudget).
type BudgetStats = store.BudgetStats

// ErrStoreClosed is returned by every operation on a store after Close —
// including operations on a hub shard whose store was evicted.
var ErrStoreClosed = store.ErrStoreClosed

// ErrHubClosed is returned by every operation on a hub after Close.
var ErrHubClosed = store.ErrHubClosed

// ErrUnknownDataset is returned (wrapped, naming the shard) when a read
// addresses a tenant/dataset that was never committed to.
var ErrUnknownDataset = store.ErrUnknownDataset

// ErrInvalidName rejects tenant/dataset names that could escape the hub
// directory or collide with the store's own files.
var ErrInvalidName = store.ErrInvalidName

// OpenHub opens (or creates) a multi-tenant store hub rooted at dir. With
// dir "" every shard is memory-only (they still share the budget).
func OpenHub(dir string) (*StoreHub, error) { return store.OpenHub(dir) }

// OpenHubWith is OpenHub with explicit tuning.
func OpenHubWith(dir string, opts HubOptions) (*StoreHub, error) {
	return store.OpenHubWith(dir, opts)
}
