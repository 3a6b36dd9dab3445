// Commit notifications: the seam that lets upper layers (the serving
// live-timeline registry, CLIs in -follow mode) observe every acked commit
// without polling. Delivery is strictly off the commit lock and never
// blocks: a subscriber that falls behind has its oldest pending note
// dropped (coalesced) rather than stalling the committer — consumers that
// observe Dropped() > 0 resynchronize from the store head, which is always
// authoritative.

package store

import (
	"sync"
	"sync/atomic"
)

// DefaultSubscribeBuffer is the per-subscription channel capacity used when
// Subscribe is called with buf <= 0.
const DefaultSubscribeBuffer = 16

// CommitNote is one commit-notification event: the version that was newly
// registered by Commit. Dedup'd commits (content addressing returning an
// existing version) do not produce notes — subscribers see each version id
// at most once.
type CommitNote struct {
	Version *Version
}

// HubCommitNote is one hub-level commit event: which shard committed, and
// the new version. The hub feed is the fan-in of every open shard's store
// feed, so one subscription observes commits across all tenants/datasets.
type HubCommitNote struct {
	Tenant  string
	Dataset string
	Version *Version
}

// Subscription is one subscriber's handle on a Store's commit feed, and
// HubSubscription on a Hub's. Receive from C(); Close when done. The
// channel is closed by Close and by the store's (or hub's) Close, so
// ranging over C() terminates at shutdown.
type (
	Subscription    = subscription[CommitNote]
	HubSubscription = subscription[HubCommitNote]
)

// subscription is one subscriber of a fanout.
type subscription[N any] struct {
	f       *fanout[N]
	ch      chan N
	dropped atomic.Int64
}

// C returns the note channel. Notes arrive in commit order; under
// slow-subscriber coalescing some may be dropped (count via Dropped).
func (sub *subscription[N]) C() <-chan N { return sub.ch }

// Dropped reports how many notes were discarded because the subscriber's
// buffer was full. Any nonzero value means the feed has gaps and the
// consumer should resync from the store head.
func (sub *subscription[N]) Dropped() int64 { return sub.dropped.Load() }

// Close detaches the subscription and closes its channel. Idempotent, and
// safe to race with the feed's own close.
func (sub *subscription[N]) Close() {
	sub.f.mu.Lock()
	defer sub.f.mu.Unlock()
	if _, ok := sub.f.subs[sub]; ok {
		delete(sub.f.subs, sub)
		close(sub.ch)
	}
}

// fanout is one commit feed's subscriber set: the Store's (N = CommitNote)
// and the Hub's (N = HubCommitNote). Its mutex is independent of the
// owner's locks, and delivery never blocks, so a subscriber can never stall
// a committer.
type fanout[N any] struct {
	mu     sync.Mutex
	subs   map[*subscription[N]]struct{}
	closed bool // set by closeAll; further subscribes get a closed channel
}

// subscribe registers a subscriber with the given channel capacity (<= 0
// uses DefaultSubscribeBuffer). Subscribing to a closed feed returns a
// subscription whose channel is already closed.
func (f *fanout[N]) subscribe(buf int) *subscription[N] {
	if buf <= 0 {
		buf = DefaultSubscribeBuffer
	}
	sub := &subscription[N]{f: f, ch: make(chan N, buf)}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		close(sub.ch)
		return sub
	}
	if f.subs == nil {
		f.subs = make(map[*subscription[N]]struct{})
	}
	f.subs[sub] = struct{}{}
	return sub
}

// closeAll closes every live subscription and the feed itself.
func (f *fanout[N]) closeAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for sub := range f.subs {
		close(sub.ch)
	}
	f.subs = nil
	f.closed = true
}

// publish fans one note out to every subscriber. Every send is
// non-blocking: when a subscriber's buffer is full its oldest pending note
// is dropped to make room (coalescing), and if the send still cannot
// proceed the new note is dropped instead — either way the publisher never
// waits.
func (f *fanout[N]) publish(note N) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for sub := range f.subs {
		select {
		case sub.ch <- note:
		default:
			select {
			case <-sub.ch:
				sub.dropped.Add(1)
			default:
			}
			select {
			case sub.ch <- note:
			default:
				sub.dropped.Add(1)
			}
		}
	}
}

// Subscribe registers a commit-notification subscriber with the given
// channel capacity (<= 0 uses DefaultSubscribeBuffer). Subscribing to a
// closed store returns a subscription whose channel is already closed.
func (s *Store) Subscribe(buf int) *Subscription { return s.feed.subscribe(buf) }

// Subscribe registers a hub-wide commit subscriber (buf <= 0 uses
// DefaultSubscribeBuffer). Notes carry the tenant/dataset of the shard that
// committed. Subscribing to a closed hub returns an already-closed channel.
func (h *Hub) Subscribe(buf int) *HubSubscription { return h.feed.subscribe(buf) }

// forwardShard bridges one shard's store-level feed into the hub feed. It
// runs as a goroutine spawned when the shard opens and exits when the
// shard's store is closed (eviction or hub shutdown closes the store-level
// channel); a re-opened shard spawns a fresh forwarder. The one shard of a
// hub built by HubOf never re-opens, so its store's close ends the hub feed
// too.
func (h *Hub) forwardShard(sh *shard, sub *Subscription) {
	for note := range sub.C() {
		h.feed.publish(HubCommitNote{Tenant: sh.tenant, Dataset: sh.dataset, Version: note.Version})
	}
	if h.only {
		h.feed.closeAll()
	}
}
