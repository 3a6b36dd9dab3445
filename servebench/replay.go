package main

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"charles/internal/core"
	"charles/internal/csvio"
	"charles/internal/diff"
	"charles/internal/history"
	"charles/internal/serve"
	"charles/internal/store"
	"charles/internal/table"
)

// The traced replay runs a workload's set-up and op sequence through the
// same public functions its route handlers call, serially and without
// HTTP, with one span per call. Self time per span is then busy time per
// layer.

// replayStats is what one traced replay measured besides its spans.
type replayStats struct {
	spans   []span
	opNS    []int64 // wall time of each timed op
	commits int
	logical int64 // canonical CSV bytes the store holds at the end
	syncs   int64 // fsyncs over the whole replay
	written int64 // bytes written over the whole replay
	opReads int64 // whole-file reads during the timed ops
	diffs   int
	natives int // delta-native diff answers
	missOps int // timed ops that missed at least one store cache
}

// replayStore is a store opened on dir through a counting, tracing FS.
type replayStore struct {
	tr  *tracer
	fs  *countingFS
	st  *store.Store
	ids []string
	rs  replayStats
}

func openReplay(tr *tracer, dir string) (*replayStore, error) {
	cfs := &countingFS{tr: tr}
	st, err := store.OpenWith(dir, store.Options{FS: cfs})
	if err != nil {
		return nil, err
	}
	return &replayStore{tr: tr, fs: cfs, st: st}, nil
}

// commit is POST /versions: parse the CSV, then commit it on the chain.
func (r *replayStore) commit(text string) error {
	var t *table.Table
	err := r.tr.do("csvio.read", func() (err error) {
		t, err = csvio.Read(strings.NewReader(text), csvio.Options{Key: chainKey})
		return err
	})
	if err != nil {
		return err
	}
	parent := ""
	if n := len(r.ids); n > 0 {
		parent = r.ids[n-1]
	}
	var v *store.Version
	err = r.tr.do("store.commit", func() (err error) {
		v, err = r.st.Commit(t, parent, fmt.Sprintf("v%d", len(r.ids)+1))
		return err
	})
	if err != nil {
		return err
	}
	r.ids = append(r.ids, v.ID)
	r.rs.commits++
	return nil
}

// ops times n ops, each under a root span, and records the file reads
// they made.
func (r *replayStore) ops(n int, op func(i int) error) error {
	r.rs.opNS = make([]int64, n)
	reads := r.fs.reads.Load()
	for i := 0; i < n; i++ {
		r.tr.setOp(i)
		t0 := time.Now()
		root := r.tr.begin("op")
		err := op(i)
		r.tr.end(root)
		r.rs.opNS[i] = int64(time.Since(t0))
		if err != nil {
			return fmt.Errorf("replay op %d: %w", i, err)
		}
	}
	r.tr.setOp(-1)
	r.rs.opReads = r.fs.reads.Load() - reads
	return nil
}

// close finishes the replay's bookkeeping and closes the store.
func (r *replayStore) close() (replayStats, error) {
	r.rs.logical = r.st.Stats().LogicalBytes
	r.rs.syncs = r.fs.syncs.Load()
	r.rs.written = r.fs.bytesWritten.Load()
	r.rs.spans = r.tr.spans
	return r.rs, r.st.Close()
}

// encode is the serve layer's answer encoding: writeJSON's indented
// encoder.
func (r *replayStore) encode(v func() any) error {
	return r.tr.do("serve.encode", func() error {
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", "  ")
		return enc.Encode(v())
	})
}

type rankedAnswer struct {
	From   string             `json:"from"`
	To     string             `json:"to"`
	Target string             `json:"target"`
	Ranked []serve.RankedJSON `json:"ranked"`
}

func (w *exploreWL) replay(ctx context.Context, tr *tracer, dir string) (replayStats, error) {
	r, err := openReplay(tr, dir)
	if err != nil {
		return replayStats{}, err
	}
	defer r.st.Close()
	for _, text := range w.ch.csv {
		if err := r.commit(text); err != nil {
			return replayStats{}, err
		}
	}
	// The overview walk, as POST /timeline with an explicit head runs it:
	// materialize the chain, align every step, then per step one pair
	// context and one engine run per changed target.
	var tables []*table.Table
	if err := tr.do("history.materialize", func() (err error) {
		tables, err = history.MaterializeChainContext(ctx, r.st, r.ids)
		return err
	}); err != nil {
		return replayStats{}, err
	}
	var steps [][]rankedAnswer
	for i := 0; i+1 < len(tables); i++ {
		var a *diff.Aligned
		var attrs []string
		if err := tr.do("diff.align", func() (err error) {
			if a, err = diff.Align(tables[i], tables[i+1]); err != nil {
				return err
			}
			attrs, err = a.ChangedAttrs(1e-9)
			return err
		}); err != nil {
			return replayStats{}, err
		}
		var answers []rankedAnswer
		if err := tr.do("core.step", func() error {
			pc, err := core.NewPairContext(a)
			if err != nil {
				return err
			}
			for _, target := range attrs {
				opts := core.DefaultOptions(target)
				opts.Workers = 1
				ranked, err := pc.Summarize(opts)
				if err != nil {
					return err
				}
				answers = append(answers, rankedAnswer{Target: target, Ranked: serve.EncodeRanked(ranked)})
			}
			return nil
		}); err != nil {
			return replayStats{}, err
		}
		steps = append(steps, answers)
	}
	if err := r.encode(func() any { return steps }); err != nil {
		return replayStats{}, err
	}
	// The α-slider ops, as POST /summarize runs each one.
	err = r.ops(len(w.ops), func(i int) error {
		op := w.ops[i]
		from, to := r.ids[op.step-1], r.ids[op.step]
		var src, tgt *table.Table
		var a *diff.Aligned
		var ranked []core.Ranked
		if err := tr.do("store.get", func() error {
			if _, err := r.st.Get(from); err != nil {
				return err
			}
			_, err := r.st.Get(to)
			return err
		}); err != nil {
			return err
		}
		if err := tr.do("store.checkout", func() (err error) { src, err = r.st.Checkout(from); return err }); err != nil {
			return err
		}
		if err := tr.do("store.checkout", func() (err error) { tgt, err = r.st.Checkout(to); return err }); err != nil {
			return err
		}
		if err := tr.do("diff.align", func() (err error) { a, err = diff.Align(src, tgt); return err }); err != nil {
			return err
		}
		opts := core.DefaultOptions(op.target)
		opts.Alpha = op.alpha
		if err := tr.do("core.summarize", func() (err error) { ranked, err = core.SummarizeAligned(a, opts); return err }); err != nil {
			return err
		}
		return r.encode(func() any {
			return rankedAnswer{From: from, To: to, Target: op.target, Ranked: serve.EncodeRanked(ranked)}
		})
	})
	if err != nil {
		return replayStats{}, err
	}
	return r.close()
}

type liveStep struct {
	From     string             `json:"from"`
	To       string             `json:"to"`
	NoChange bool               `json:"noChange,omitempty"`
	Ranked   []serve.RankedJSON `json:"ranked,omitempty"`
}

type liveDrift struct {
	StepA            int    `json:"stepA"`
	StepB            int    `json:"stepB"`
	SamePartitioning bool   `json:"samePartitioning"`
	Note             string `json:"note"`
}

type liveTarget struct {
	Target string      `json:"target"`
	Steps  []liveStep  `json:"steps"`
	Drifts []liveDrift `json:"drifts,omitempty"`
}

type liveAnswer struct {
	Head     string            `json:"head"`
	Versions []string          `json:"versions"`
	Steps    int               `json:"steps"`
	Live     bool              `json:"live,omitempty"`
	Targets  []liveTarget      `json:"targets"`
	Skipped  map[string]string `json:"skipped,omitempty"`
}

// resultLRU stands in for the server's result cache in the live replay:
// the same capacity, keys and get-or-insert order, so the replay retains
// the state the served path retains.
type resultLRU struct {
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	val any
}

func newResultLRU(capacity int) *resultLRU {
	return &resultLRU{cap: capacity, ll: list.New(), items: map[string]*list.Element{}}
}

// do returns key's value, computing and inserting it on a miss.
func (c *resultLRU) do(key string, compute func() any) any {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruEntry).val
	}
	v := compute()
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: v})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*lruEntry).key)
	}
	return v
}

// answerLive answers the head-relative POST /timeline as the live path
// does: under the head's result-cache key it reads the maintained
// timeline, seeds the per-step entries summarize would use, and builds the
// answer; then the answer is encoded.
func (r *replayStore) answerLive(m *history.TimelineMaintainer, cache *resultLRU) error {
	head := m.Head()
	ans := cache.do("timeline|"+head, func() any {
		var mt *history.MultiTimeline
		var ids []string
		drifts := map[string][]history.Drift{}
		r.tr.do("history.timeline", func() error {
			mt, ids = m.Timeline(), m.Versions()
			for _, attr := range mt.Attrs {
				drifts[attr] = mt.Timelines[attr].Drifts()
			}
			return nil
		})
		r.tr.do("serve.seed", func() error {
			for _, attr := range mt.Attrs {
				fp := core.DefaultOptions(attr).Fingerprint()
				for _, hs := range mt.Timelines[attr].Steps {
					if ranked := hs.Ranked; len(ranked) > 0 {
						cache.do(ids[hs.From]+"|"+ids[hs.To]+"|"+fp, func() any { return ranked })
					}
				}
			}
			return nil
		})
		out := liveAnswer{Head: head, Versions: ids, Steps: mt.Steps, Skipped: mt.Skipped, Live: true}
		r.tr.do("serve.encode", func() error {
			for _, attr := range mt.Attrs {
				lt := liveTarget{Target: attr}
				for _, hs := range mt.Timelines[attr].Steps {
					st := liveStep{From: ids[hs.From], To: ids[hs.To], NoChange: hs.NoChange}
					if len(hs.Ranked) > 0 {
						st.Ranked = serve.EncodeRanked(hs.Ranked)
					}
					lt.Steps = append(lt.Steps, st)
				}
				for _, d := range drifts[attr] {
					lt.Drifts = append(lt.Drifts, liveDrift{StepA: d.StepA, StepB: d.StepB, SamePartitioning: d.SamePartitioning, Note: d.Note})
				}
				out.Targets = append(out.Targets, lt)
			}
			return nil
		})
		return out
	})
	return r.encode(func() any { return ans })
}

func (w *liveWL) replay(ctx context.Context, tr *tracer, dir string) (replayStats, error) {
	r, err := openReplay(tr, dir)
	if err != nil {
		return replayStats{}, err
	}
	defer r.st.Close()
	for _, text := range w.ch.csv[:w.sz.versions] {
		if err := r.commit(text); err != nil {
			return replayStats{}, err
		}
	}
	// The first head-relative timeline seeds the maintainer over the
	// chain.
	var mats []*table.Table
	if err := tr.do("history.materialize", func() (err error) {
		mats, err = history.MaterializeChainContext(ctx, r.st, r.ids)
		return err
	}); err != nil {
		return replayStats{}, err
	}
	var m *history.TimelineMaintainer
	if err := tr.do("history.seed", func() (err error) {
		m, err = history.NewTimelineMaintainerContext(ctx, mats, r.ids, core.DefaultOptions(""))
		return err
	}); err != nil {
		return replayStats{}, err
	}
	cache := newResultLRU(serve.DefaultCacheSize)
	if err := r.answerLive(m, cache); err != nil {
		return replayStats{}, err
	}
	// Each cycle: commit, one maintainer step (the commit pump's work),
	// then the fresh head's timeline answer.
	err = r.ops(w.sz.ops, func(i int) error {
		if err := r.commit(w.ch.csv[w.sz.versions+i]); err != nil {
			return err
		}
		id := r.ids[len(r.ids)-1]
		if err := tr.do("history.extend", func() error { return m.ExtendFromSource(r.st, id) }); err != nil {
			return err
		}
		return r.answerLive(m, cache)
	})
	if err != nil {
		return replayStats{}, err
	}
	return r.close()
}

type diffAnswer struct {
	From           string   `json:"from"`
	To             string   `json:"to"`
	DeltaNative    bool     `json:"deltaNative"`
	UpdateDistance int      `json:"updateDistance"`
	ChangedAttrs   []string `json:"changedAttrs"`
	Removed        []string `json:"removed,omitempty"`
	Inserted       []string `json:"inserted,omitempty"`
}

type rowAnswer struct {
	Key   string            `json:"key"`
	Cells map[string]string `json:"cells"`
}

type changesAnswer struct {
	Version  string      `json:"version"`
	Parent   string      `json:"parent,omitempty"`
	Columns  []string    `json:"columns,omitempty"`
	Removed  []string    `json:"removed,omitempty"`
	Inserted []rowAnswer `json:"inserted,omitempty"`
	Patched  []rowAnswer `json:"patched,omitempty"`
}

// lookup runs one cached store call under a span named for whether it hit:
// name.hit when the counter picked by misses did not move, name.miss when
// it did.
func (r *replayStore) lookup(name string, misses func(store.Stats) int64, f func() error) (bool, error) {
	before := misses(r.st.Stats())
	idx := r.tr.begin(name)
	err := f()
	r.tr.end(idx)
	missed := misses(r.st.Stats()) > before
	suffix := ".hit"
	if missed {
		suffix = ".miss"
	}
	r.tr.rename(idx, name+suffix)
	return missed, err
}

func allMisses(s store.Stats) int64 {
	return s.Tables.Misses + s.Blobs.Misses + s.Changes.Misses + s.Results.Misses
}

// readOp runs one read op as its route handler does and reports whether
// it missed any store cache.
func (r *replayStore) readOp(op readOp) (bool, error) {
	id := r.ids[op.v]
	switch op.class {
	case opCSV:
		return r.lookup("store.blob", allMisses, func() error { _, err := r.st.Blob(id); return err })
	case opDiffAdj, opDiffNear:
		from := r.ids[op.v-op.gap]
		var res *diff.Result
		var native bool
		missed, err := r.lookup("store.diff", allMisses, func() (err error) {
			res, native, err = r.st.DiffResult(from, id, 1e-9)
			return err
		})
		if err != nil {
			return missed, err
		}
		r.rs.diffs++
		if native {
			r.rs.natives++
		}
		return missed, r.encode(func() any {
			return diffAnswer{From: from, To: id, DeltaNative: native, UpdateDistance: res.UpdateDistance,
				ChangedAttrs: res.ChangedAttrs, Removed: res.Removed, Inserted: res.Inserted}
		})
	case opChanges:
		var cs *store.ChangeSet
		missed, err := r.lookup("store.changes", allMisses, func() (err error) { cs, err = r.st.Changes(id); return err })
		if err != nil {
			return missed, err
		}
		return missed, r.encode(func() any {
			out := changesAnswer{Version: cs.Version, Parent: cs.Base, Columns: cs.Columns, Removed: cs.Removed}
			cell := func(ci int) string {
				if ci >= 0 && ci < len(cs.Columns) {
					return cs.Columns[ci]
				}
				return fmt.Sprint(ci)
			}
			for _, ins := range cs.Inserted {
				cells := map[string]string{}
				for ci, v := range ins.Cells {
					cells[cell(ci)] = v
				}
				out.Inserted = append(out.Inserted, rowAnswer{Key: ins.Key, Cells: cells})
			}
			for _, p := range cs.Patched {
				cells := map[string]string{}
				for k, ci := range p.Cols {
					cells[cell(ci)] = p.Vals[k]
				}
				out.Patched = append(out.Patched, rowAnswer{Key: p.Key, Cells: cells})
			}
			return out
		})
	default:
		var v *store.Version
		var lineage []*store.Version
		if err := r.tr.do("store.get", func() (err error) {
			if v, err = r.st.Get(id); err != nil {
				return err
			}
			lineage, err = r.st.Lineage(id)
			return err
		}); err != nil {
			return false, err
		}
		return false, r.encode(func() any {
			ids := make([]string, len(lineage))
			for i, lv := range lineage {
				ids[i] = lv.ID
			}
			return struct {
				*store.Version
				Lineage []string `json:"lineage"`
			}{v, ids}
		})
	}
}

func (w *readWL) replay(_ context.Context, tr *tracer, dir string) (replayStats, error) {
	r, err := openReplay(tr, dir)
	if err != nil {
		return replayStats{}, err
	}
	defer r.st.Close()
	for _, text := range w.ch.csv {
		if err := r.commit(text); err != nil {
			return replayStats{}, err
		}
	}
	for _, op := range w.warmOps() {
		if _, err := r.readOp(op); err != nil {
			return replayStats{}, err
		}
	}
	r.rs.diffs, r.rs.natives = 0, 0
	err = r.ops(len(w.ops), func(i int) error {
		missed, err := r.readOp(w.ops[i])
		if missed {
			r.rs.missOps++
		}
		return err
	})
	if err != nil {
		return replayStats{}, err
	}
	return r.close()
}
