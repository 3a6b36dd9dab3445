// Live timelines: the serve-side consumer of the store's commit
// notifications. A liveRegistry keeps one liveShard per dataset; each shard
// owns an incrementally maintained history.TimelineMaintainer (extended by
// exactly one engine step per commit, rebuilt from the chain when the
// incremental step cannot apply — schema change, missed notes, branch
// switch) plus a bounded ring of watch events fanned out to /timeline/watch
// subscribers. Head-relative POST /timeline answers are assembled from the
// maintainer and memoized whole-response keyed by the head version id (see
// handleTimeline), so a warm answer costs one cache lookup regardless of
// chain length — the "query answering under updates" discipline applied end
// to end.

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"charles/internal/core"
	"charles/internal/history"
	"charles/internal/store"
)

// liveEventRing bounds the per-shard buffered watch events a late or
// reconnecting long-poller can still observe; older history is answered
// with resync=true (re-fetch POST /timeline from the head).
const liveEventRing = 64

// watcherBuffer is each subscriber's event channel capacity; a subscriber
// that falls behind has its oldest pending event dropped and the next
// delivered event marked resync.
const watcherBuffer = 8

// watchPollTimeout bounds a blocking long-poll: after this long with no
// commit the poll returns 200 with an empty event list and the client
// re-polls — never a 503, so pollers cannot distinguish idle from slow.
const watchPollTimeout = 25 * time.Second

// errTimelineTooShort is the too-few-versions error of every timeline.
var errTimelineTooShort = errors.New("timeline needs a lineage of at least 2 versions")

// watchTargetJSON is one attribute's state after the newest step: whether
// the step changed it and the latest drift note (how the newest policy
// relates to the previous step's).
type watchTargetJSON struct {
	Target   string `json:"target"`
	NoChange bool   `json:"noChange,omitempty"`
	Drift    string `json:"drift,omitempty"`
}

// watchEvent is one commit's effect on a dataset's live timeline, as
// delivered to /timeline/watch subscribers (SSE "step" events and long-poll
// event lists).
type watchEvent struct {
	Seq     int64             `json:"seq"`               // per-shard event sequence
	Head    string            `json:"head"`              // new head version id
	Parent  string            `json:"parent,omitempty"`  // its parent
	Version int               `json:"version,omitempty"` // store commit seq
	Mode    string            `json:"mode"`              // "extend", "rebuild", or "skip"
	Steps   int               `json:"steps"`             // maintained steps after this commit
	Targets []watchTargetJSON `json:"targets,omitempty"`
	// Resync reports a gap: events were dropped before this one (slow
	// subscriber) — re-fetch POST /timeline for the authoritative state.
	Resync bool `json:"resync,omitempty"`
}

// watchPollResponse is the GET /timeline/watch?since= body.
type watchPollResponse struct {
	Head     string       `json:"head"`
	Seq      int64        `json:"seq"`
	Resync   bool         `json:"resync,omitempty"`
	Draining bool         `json:"draining,omitempty"`
	Events   []watchEvent `json:"events"`
}

// watchHeadJSON is the initial SSE "head" event payload.
type watchHeadJSON struct {
	Head string `json:"head"`
	Seq  int64  `json:"seq"`
}

// liveWatcher is one subscriber's delivery channel. missed (guarded by the
// shard mutex) records that an event could not be delivered, so the next
// one that can be is marked Resync.
type liveWatcher struct {
	ch     chan watchEvent
	missed bool
}

// liveShard is one dataset's live-timeline state. The mutex serializes
// maintenance (commit application, rebuilds) with readers; engine work runs
// under it, which is safe because it is a serve-layer lock — the store's
// own locks are never held while it is.
type liveShard struct {
	key string // "tenant/dataset"

	mu       sync.Mutex
	maint    *history.TimelineMaintainer // nil until a ≥2-version chain exists
	head     string                      // last observed head version id
	seq      int64                       // event sequence, 1-based
	events   []watchEvent                // ring of the last liveEventRing events
	watchers map[*liveWatcher]struct{}
}

// liveRegistry maps dataset keys to their live shards, created on first
// interest (a watch subscription or a head-relative timeline request).
type liveRegistry struct {
	mu     sync.Mutex
	shards map[string]*liveShard
}

func newLiveRegistry() *liveRegistry {
	return &liveRegistry{shards: map[string]*liveShard{}}
}

// shard returns (creating on first use) the key's live shard.
func (lr *liveRegistry) shard(key string) *liveShard {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	ls, ok := lr.shards[key]
	if !ok {
		ls = &liveShard{key: key, watchers: map[*liveWatcher]struct{}{}}
		lr.shards[key] = ls
	}
	return ls
}

// lookup returns the key's live shard, nil when nobody has shown interest.
func (lr *liveRegistry) lookup(key string) *liveShard {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	return lr.shards[key]
}

// pumpHub drives the hub-wide commit feed (every shard's commits, fanned in
// by the hub) into the live registry. It exits when the hub's feed closes.
func (s *Server) pumpHub(sub *store.HubSubscription) {
	for note := range sub.C() {
		s.onCommit(note.Tenant, note.Dataset, note.Version)
	}
}

// onCommit applies one commit notification: always counted, and — when the
// dataset has a live shard (someone watched or asked for a live timeline) —
// the maintainer advances by exactly one engine step (mode "extend"),
// rebuilds from the chain when the step cannot apply (mode "rebuild"), or
// records the head move without a timeline (mode "skip": root commits,
// unmaterializable chains). The resulting event fans out to watchers.
func (s *Server) onCommit(tenant, dataset string, v *store.Version) {
	key := tenant + "/" + dataset
	s.metrics.notifications.With(key).Inc()
	ls := s.live.lookup(key)
	if ls == nil {
		return // nobody is live on this dataset; first interest seeds from the head
	}
	st, release, err := s.hub.AcquireExisting(tenant, dataset)
	if err != nil {
		return // evicted or closing; the next reader reseeds
	}
	defer release()
	mode := ls.applyCommit(st, v)
	s.metrics.maintenance.With(key, mode).Inc()
}

// applyCommit advances the shard's maintained timeline for one commit and
// publishes the resulting watch event. Returns the maintenance mode.
func (ls *liveShard) applyCommit(st *store.Store, v *store.Version) string {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.head == v.ID {
		return "skip" // already observed (seeded from the head after this commit)
	}
	mode := ""
	if ls.maint != nil && ls.maint.Head() == v.ID {
		// A request-path build already absorbed this commit (the reader
		// raced the pump); just record the head move.
		mode = "skip"
		ls.head = v.ID
		ls.publishLocked(v, mode)
		return mode
	}
	if ls.maint != nil && ls.maint.Head() == v.Parent {
		if err := ls.maint.ExtendFromSource(st, v.ID); err == nil {
			mode = "extend"
		}
		// A failed extend (schema change) leaves the maintainer unchanged;
		// fall through to the rebuild.
	}
	if mode == "" {
		if m, err := rebuildMaintainer(st, v.ID); err == nil {
			ls.maint, mode = m, "rebuild"
		} else {
			ls.maint, mode = nil, "skip"
		}
	}
	ls.head = v.ID
	ls.publishLocked(v, mode)
	return mode
}

// rebuildMaintainer builds a maintainer from scratch over v's full chain —
// the fallback when the one-step extension cannot apply.
func rebuildMaintainer(st *store.Store, head string) (*history.TimelineMaintainer, error) {
	ids, err := lineageIDs(st, head)
	if err != nil {
		return nil, err
	}
	mats, err := history.MaterializeChain(st, ids)
	if err != nil {
		return nil, err
	}
	return history.NewTimelineMaintainer(mats, ids, core.DefaultOptions(""))
}

// publishLocked (caller holds ls.mu) appends one event to the ring and fans
// it out. Delivery never blocks: a full subscriber loses its oldest pending
// event and the delivered copy is marked Resync; if even that cannot be
// sent the watcher is marked missed and its next delivered event resyncs.
func (ls *liveShard) publishLocked(v *store.Version, mode string) {
	ls.seq++
	ev := watchEvent{
		Seq: ls.seq, Head: v.ID, Parent: v.Parent, Version: v.Seq,
		Mode: mode,
	}
	if ls.maint != nil {
		mt := ls.maint.Timeline()
		ev.Steps = mt.Steps
		last := mt.Steps - 1
		for _, attr := range mt.Attrs {
			tl := mt.Timelines[attr]
			tj := watchTargetJSON{Target: attr, NoChange: tl.Steps[last].NoChange}
			if drifts := tl.Drifts(); len(drifts) > 0 {
				tj.Drift = drifts[len(drifts)-1].Note
			}
			ev.Targets = append(ev.Targets, tj)
		}
	}
	ls.events = append(ls.events, ev)
	if len(ls.events) > liveEventRing {
		ls.events = append(ls.events[:0], ls.events[len(ls.events)-liveEventRing:]...)
	}
	for w := range ls.watchers {
		out := ev
		if w.missed {
			out.Resync = true
		}
		select {
		case w.ch <- out:
			w.missed = false
		default:
			select {
			case <-w.ch:
			default:
			}
			out.Resync = true
			select {
			case w.ch <- out:
				w.missed = false
			default:
				w.missed = true
			}
		}
	}
}

// eventsSinceLocked (caller holds ls.mu) returns the buffered events after
// the one whose head is since. An unknown since (older than the ring, or a
// divergent id) returns everything buffered with resync=true.
func (ls *liveShard) eventsSinceLocked(since string) ([]watchEvent, bool) {
	if since == "" {
		return append([]watchEvent{}, ls.events...), false
	}
	for i := len(ls.events) - 1; i >= 0; i-- {
		if ls.events[i].Head == since {
			return append([]watchEvent{}, ls.events[i+1:]...), false
		}
	}
	return append([]watchEvent{}, ls.events...), true
}

// liveShardFor returns the request's live shard, seeding its head from the
// store on first touch so long-pollers have a version id to poll against
// before any commit lands post-subscription.
func (s *Server) liveShardFor(sh *shardRef) *liveShard {
	ls := s.live.shard(sh.tenant + "/" + sh.dataset)
	ls.seedHead(sh)
	return ls
}

// seedHead fills in the shard's head from the store on first touch.
func (ls *liveShard) seedHead(sh *shardRef) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.head == "" {
		if hv, err := sh.st.Head(); err == nil {
			ls.head = hv.ID
		}
	}
}

// beginPoll atomically answers a long-poll that can complete immediately
// (the head already moved past since) or registers a watcher for one that
// must wait. When immediate is false, resp carries the head/seq snapshot
// the caller echoes on timeout or drain, and wt must be released with
// dropWatcher.
func (ls *liveShard) beginPoll(since string) (resp watchPollResponse, immediate bool, wt *liveWatcher) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.head != since {
		events, resync := ls.eventsSinceLocked(since)
		return watchPollResponse{Head: ls.head, Seq: ls.seq, Resync: resync, Events: events}, true, nil
	}
	wt = &liveWatcher{ch: make(chan watchEvent, watcherBuffer)}
	ls.watchers[wt] = struct{}{}
	return watchPollResponse{Head: ls.head, Seq: ls.seq, Events: []watchEvent{}}, false, wt
}

// addWatcher registers a stream subscriber and snapshots the position it
// starts from.
func (ls *liveShard) addWatcher() (wt *liveWatcher, head string, seq int64) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	wt = &liveWatcher{ch: make(chan watchEvent, watcherBuffer)}
	ls.watchers[wt] = struct{}{}
	return wt, ls.head, ls.seq
}

// dropWatcher unregisters a subscriber added by beginPoll or addWatcher.
func (ls *liveShard) dropWatcher(wt *liveWatcher) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	delete(ls.watchers, wt)
}

// handleWatch is GET /timeline/watch: with ?since=<version> a single
// long-poll (immediate when the head already moved past since, otherwise
// blocking until the next commit, the drain, or the poll timeout); without
// it a server-sent-event stream of "head" (initial position), "step" (one
// event per commit), and "drain" (shutdown) events. Both spellings hold a
// limiter slot and end promptly when the server begins draining.
func (s *Server) handleWatch(sh *shardRef, w http.ResponseWriter, r *http.Request) {
	ls := s.liveShardFor(sh)
	if r.URL.Query().Has("since") {
		s.watchPoll(ls, w, r)
		return
	}
	s.watchSSE(ls, w, r)
}

// watchPoll answers one long-poll cycle.
func (s *Server) watchPoll(ls *liveShard, w http.ResponseWriter, r *http.Request) {
	since := r.URL.Query().Get("since")
	resp, immediate, wt := ls.beginPoll(since)
	if immediate {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	s.watchSubs.Add(1)
	defer func() {
		ls.dropWatcher(wt)
		s.watchSubs.Add(-1)
	}()
	timer := time.NewTimer(watchPollTimeout)
	defer timer.Stop()
	select {
	case ev := <-wt.ch:
		writeJSON(w, http.StatusOK, watchPollResponse{
			Head: ev.Head, Seq: ev.Seq, Resync: ev.Resync, Events: []watchEvent{ev},
		})
	case <-s.drain:
		resp.Draining = true
		writeJSON(w, http.StatusOK, resp)
	case <-timer.C:
		writeJSON(w, http.StatusOK, resp)
	case <-r.Context().Done():
		// Client gone (or the request deadline fired): nothing to write.
	}
}

// watchSSE streams events until the client disconnects or the server
// drains.
func (s *Server) watchSSE(ls *liveShard, w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	wt, head, seq := ls.addWatcher()
	s.watchSubs.Add(1)
	defer func() {
		ls.dropWatcher(wt)
		s.watchSubs.Add(-1)
	}()
	rc := http.NewResponseController(w)
	if err := writeSSE(w, "head", watchHeadJSON{Head: head, Seq: seq}); err != nil {
		return
	}
	_ = rc.Flush()
	for {
		select {
		case ev := <-wt.ch:
			if err := writeSSE(w, "step", ev); err != nil {
				return
			}
			_ = rc.Flush()
		case <-s.drain:
			_ = writeSSE(w, "drain", map[string]string{"reason": "server draining"})
			_ = rc.Flush()
			return
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE writes one server-sent event with a JSON data payload.
func writeSSE(w io.Writer, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	return err
}

// liveTimelineAt returns the maintained MultiTimeline for head, building or
// rebuilding the shard's maintainer when needed — its seed walk memoized
// like any request-time walk (see stepMemo). A maintainer that has already
// advanced past head (a commit raced the request) answers from its prefix,
// so the reader still gets a consistent timeline for the head it resolved.
func (s *Server) liveTimelineAt(ctx context.Context, sh *shardRef, ls *liveShard, head string) (*history.MultiTimeline, []string, error) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.maint != nil {
		if mt, ids, ok := ls.maint.TimelineAt(head); ok {
			return mt, ids, nil
		}
	}
	ids, mats, err := materializeLineage(ctx, sh.st, head)
	if err != nil {
		return nil, nil, err
	}
	m, err := history.NewTimelineMaintainerMemo(ctx, mats, ids, core.DefaultOptions(""), s.stepMemo(ctx, sh, ids))
	if err != nil {
		return nil, nil, err
	}
	ls.maint = m
	if ls.head == "" {
		ls.head = head
	}
	return m.Timeline(), m.Versions(), nil
}
