package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"charles/internal/core"
	"charles/internal/csvio"
	"charles/internal/diff"
	"charles/internal/table"
)

// sizes fixes how much work one run of a workload does. ops is a fixed
// count, not a deadline, so every run replays the same op sequence and
// ends with the same chain, cache contents and heap.
type sizes struct {
	rows     int // entities per version
	versions int // versions ingested during set-up
	ops      int // timed ops
	setups   int // set-up repetitions; setup_s is their median
	churn    int // read: entities removed and inserted per version
	sample   int // explore: answers recomputed after the timed phase
}

// workload is one named traffic mix. Everything a workload needs from the
// seed (inputs, op sequence, expected answers) is built by its
// constructor, before any clock starts.
type workload interface {
	// setup ingests the workload's chain into a fresh instance through c
	// and runs its warm-up step.
	setup(ctx context.Context, c *client) error
	// begin starts whatever runs beside the timed ops (live's passive
	// subscriber); end stops it and reports its failures.
	begin(ctx context.Context, in *instance)
	end() error
	// op sends timed op i, returns its latency, then checks the answer.
	op(ctx context.Context, c *client, i int) (time.Duration, error)
	nops() int
	// class names op i's class, for the per-class latency lines.
	class(i int) string
	// finish runs the checks that need the whole timed phase.
	finish() error
	// replay runs the same set-up and ops through the layers' public
	// functions, without HTTP, recording spans into tr.
	replay(ctx context.Context, tr *tracer, dir string) (replayStats, error)
}

// Answer-check helpers ------------------------------------------------------

// contentID is the store's version id of a canonical CSV blob: the first 12
// hex characters of sha256(blob ‖ 0 ‖ key).
func contentID(blob []byte, key []string) string {
	h := sha256.New()
	h.Write(blob)
	for _, k := range key {
		h.Write([]byte{0})
		h.Write([]byte(k))
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

func parseCSV(text string) (*table.Table, error) {
	return csvio.Read(strings.NewReader(text), csvio.Options{Key: chainKey})
}

// commitBody is a POST /versions body around a pre-encoded CSV string.
func commitBody(csvJSON []byte, parent string, seq int) []byte {
	var b strings.Builder
	b.WriteString(`{"csv":`)
	b.Write(csvJSON)
	b.WriteString(`,"key":["id"],"parent":"`)
	b.WriteString(parent)
	fmt.Fprintf(&b, `","message":"v%d"}`, seq)
	return []byte(b.String())
}

type versionJSON struct {
	ID      string   `json:"id"`
	Parent  string   `json:"parent"`
	Seq     int      `json:"seq"`
	Rows    int      `json:"rows"`
	Lineage []string `json:"lineage"`
}

// ingest commits the versions after ids (the chain so far) up to version
// to through POST /versions and returns the extended id list.
func ingest(ctx context.Context, c *client, csvJSON [][]byte, ids []string, to int) ([]string, error) {
	for i := len(ids); i < to; i++ {
		parent := ""
		if i > 0 {
			parent = ids[i-1]
		}
		data, err := c.do(ctx, http.MethodPost, "/versions", commitBody(csvJSON[i], parent, i+1))
		if err != nil {
			return nil, err
		}
		v, err := checkCommit(data, parent, i+1)
		if err != nil {
			return nil, err
		}
		ids = append(ids, v.ID)
	}
	return ids, nil
}

func checkCommit(data []byte, parent string, seq int) (versionJSON, error) {
	var v versionJSON
	if err := json.Unmarshal(data, &v); err != nil {
		return v, fmt.Errorf("commit answer: %w", err)
	}
	if len(v.ID) != 12 || v.Parent != parent || v.Seq != seq {
		return v, fmt.Errorf("commit answer: id %q parent %q seq %d, want parent %q seq %d", v.ID, v.Parent, v.Seq, parent, seq)
	}
	return v, nil
}

func encodeCSVs(ch chain) ([][]byte, error) {
	out := make([][]byte, len(ch.csv))
	for i, s := range ch.csv {
		b, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

func timed(f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}

// explore ------------------------------------------------------------------

type rankedJSON struct {
	Breakdown struct {
		Score float64 `json:"score"`
	} `json:"breakdown"`
	NoChange bool `json:"noChange"`
}

type summarizeJSON struct {
	From   string       `json:"from"`
	To     string       `json:"to"`
	Target string       `json:"target"`
	Cached bool         `json:"cached"`
	Ranked []rankedJSON `json:"ranked"`
}

type timelineJSON struct {
	Head     string   `json:"head"`
	Versions []string `json:"versions"`
	Steps    int      `json:"steps"`
	Live     bool     `json:"live"`
	Targets  []struct {
		Target string `json:"target"`
	} `json:"targets"`
}

// exploreWL is the α-slider interaction: one client, summarize requests on
// a warm chain, each with a weight no earlier request used.
type exploreWL struct {
	sz      sizes
	ch      chain
	csvJSON [][]byte
	ops     []exploreOp
	sample  []int // op indexes recomputed by finish
	targets []string

	ids []string
	top map[int]float64 // top-1 score answered for sampled ops
	// corrupt, when set, alters one answer before it is checked; tests use
	// it to prove the checks reject a wrong answer.
	corrupt func(i int, ans *summarizeJSON)
}

func newExplore(seed int64, sz sizes) (*exploreWL, error) {
	ch := policyChain(seed, sz.rows, sz.versions, false)
	csvJSON, err := encodeCSVs(ch)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	w := &exploreWL{sz: sz, ch: ch, csvJSON: csvJSON, ops: exploreOps(rng, ch, sz.ops)}
	w.sample = rng.Perm(len(w.ops))[:min(sz.sample, len(w.ops))]
	seen := map[string]bool{}
	for _, ts := range ch.changed {
		for _, t := range ts {
			seen[t] = true
		}
	}
	for _, t := range targetAttrs {
		if seen[t] {
			w.targets = append(w.targets, t)
		}
	}
	return w, nil
}

func (w *exploreWL) nops() int                        { return len(w.ops) }
func (w *exploreWL) class(i int) string               { return w.ops[i].target }
func (w *exploreWL) begin(context.Context, *instance) {}
func (w *exploreWL) end() error                       { return nil }
func (w *exploreWL) exploreBody(op exploreOp) []byte {
	return []byte(fmt.Sprintf(`{"from":%q,"to":%q,"target":%q,"alpha":%s}`,
		w.ids[op.step-1], w.ids[op.step], op.target, strconv.FormatFloat(op.alpha, 'g', -1, 64)))
}

func (w *exploreWL) setup(ctx context.Context, c *client) error {
	ids, err := ingest(ctx, c, w.csvJSON, nil, len(w.csvJSON))
	if err != nil {
		return err
	}
	w.ids = ids
	w.top = map[int]float64{}
	// The overview: an explicit-head timeline over every changed
	// attribute, walked at request time.
	head := ids[len(ids)-1]
	data, err := c.do(ctx, http.MethodPost, "/timeline", []byte(fmt.Sprintf(`{"head":%q}`, head)))
	if err != nil {
		return err
	}
	var tl timelineJSON
	if err := json.Unmarshal(data, &tl); err != nil {
		return fmt.Errorf("overview answer: %w", err)
	}
	var got []string
	for _, t := range tl.Targets {
		got = append(got, t.Target)
	}
	if tl.Head != head || tl.Live || tl.Steps != len(ids)-1 || !slices.Equal(got, w.targets) {
		return fmt.Errorf("overview answer: head %s live %v steps %d targets %v, want head %s steps %d targets %v",
			tl.Head, tl.Live, tl.Steps, got, head, len(ids)-1, w.targets)
	}
	return nil
}

func (w *exploreWL) op(ctx context.Context, c *client, i int) (time.Duration, error) {
	op := w.ops[i]
	body := w.exploreBody(op)
	var data []byte
	d, err := timed(func() (err error) {
		data, err = c.do(ctx, http.MethodPost, "/summarize", body)
		return err
	})
	if err != nil {
		return d, err
	}
	var ans summarizeJSON
	if err := json.Unmarshal(data, &ans); err != nil {
		return d, fmt.Errorf("summarize answer: %w", err)
	}
	if w.corrupt != nil {
		w.corrupt(i, &ans)
	}
	switch {
	case ans.From != w.ids[op.step-1] || ans.To != w.ids[op.step] || ans.Target != op.target:
		return d, fmt.Errorf("summarize answer is for %s→%s %s, asked %s→%s %s",
			ans.From, ans.To, ans.Target, w.ids[op.step-1], w.ids[op.step], op.target)
	case ans.Cached:
		return d, errors.New("summarize answer came from the result cache, but its α was never asked before")
	case len(ans.Ranked) == 0 || ans.Ranked[0].NoChange:
		return d, fmt.Errorf("summarize answer for changed target %s has no ranked summary", op.target)
	}
	if slices.Contains(w.sample, i) {
		w.top[i] = ans.Ranked[0].Breakdown.Score
	}
	return d, nil
}

// finish recomputes the sampled answers straight through the engine and
// requires the same top-1 score.
func (w *exploreWL) finish() error {
	for _, i := range w.sample {
		got, ok := w.top[i]
		if !ok {
			continue // the op failed and was counted already
		}
		op := w.ops[i]
		ranked, err := summarizeDirect(w.ch.csv[op.step-1], w.ch.csv[op.step], op)
		if err != nil {
			return err
		}
		want := ranked[0].Score()
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			return fmt.Errorf("op %d (%s step %d α=%g): served top-1 score %v, engine recomputes %v", i, op.target, op.step, op.alpha, got, want)
		}
	}
	return nil
}

func summarizeDirect(src, tgt string, op exploreOp) ([]core.Ranked, error) {
	s, err := parseCSV(src)
	if err != nil {
		return nil, err
	}
	t, err := parseCSV(tgt)
	if err != nil {
		return nil, err
	}
	a, err := diff.Align(s, t)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions(op.target)
	opts.Alpha = op.alpha
	ranked, err := core.SummarizeAligned(a, opts)
	if err != nil {
		return nil, err
	}
	if len(ranked) == 0 {
		return nil, fmt.Errorf("engine returned no summary for %s step %d", op.target, op.step)
	}
	return ranked, nil
}

// live ---------------------------------------------------------------------

type watchJSON struct {
	Head   string `json:"head"`
	Events []struct {
		Head  string `json:"head"`
		Mode  string `json:"mode"`
		Steps int    `json:"steps"`
	} `json:"events"`
}

// liveWL is the commit-driven timeline: a committer appends the next policy
// step, rides the commit with a long-poll, and reads the warm head-relative
// timeline, while one passive subscriber holds /timeline/watch.
type liveWL struct {
	sz      sizes
	ch      chain
	csvJSON [][]byte
	ids     []string

	subCancel context.CancelFunc
	subDone   chan error
	// bufs hold one cycle's three answers; the timeline answer holds the
	// whole chain, so reusing them keeps the benchmark's own garbage out
	// of the program's GC.
	bufs [3]bytes.Buffer

	corrupt func(i int, ans *timelineJSON)
}

func newLive(seed int64, sz sizes) (*liveWL, error) {
	ch := policyChain(seed, sz.rows, sz.versions+sz.ops, true)
	csvJSON, err := encodeCSVs(ch)
	if err != nil {
		return nil, err
	}
	return &liveWL{sz: sz, ch: ch, csvJSON: csvJSON}, nil
}

func (w *liveWL) nops() int { return w.sz.ops }

// class splits the cycles into fifths of the run, so the per-class lines
// show how cycle cost grows with chain length.
func (w *liveWL) class(i int) string {
	q := 5 * i / w.sz.ops
	return fmt.Sprintf("cycles %d/5 (chain %d-%d)", q+1, w.sz.versions+q*w.sz.ops/5+1, w.sz.versions+(q+1)*w.sz.ops/5)
}
func (w *liveWL) finish() error { return nil }

func (w *liveWL) setup(ctx context.Context, c *client) error {
	ids, err := ingest(ctx, c, w.csvJSON, nil, w.sz.versions)
	if err != nil {
		return err
	}
	w.ids = ids
	// The first head-relative timeline seeds the maintainer.
	data, err := c.do(ctx, http.MethodPost, "/timeline", []byte("{}"))
	if err != nil {
		return err
	}
	return checkLiveTimeline(data, ids, nil)
}

func checkLiveTimeline(data []byte, ids []string, corrupt func(*timelineJSON)) error {
	tl, err := decodeTimelineHead(data)
	if err != nil {
		return fmt.Errorf("timeline answer: %w", err)
	}
	if corrupt != nil {
		corrupt(&tl)
	}
	head := ids[len(ids)-1]
	if !tl.Live || tl.Head != head || tl.Steps != len(ids)-1 || !slices.Equal(tl.Versions, ids) {
		return fmt.Errorf("timeline answer: live %v head %s steps %d over %d versions, want live head %s with %d steps",
			tl.Live, tl.Head, tl.Steps, len(tl.Versions), head, len(ids)-1)
	}
	return nil
}

// decodeTimelineHead decodes the fields of a timeline answer that precede
// its per-target steps and stops there: the steps hold the whole chain,
// and scanning them for every cycle would make the benchmark's own work
// grow with the chain.
func decodeTimelineHead(data []byte) (timelineJSON, error) {
	var tl timelineJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	if _, err := dec.Token(); err != nil {
		return tl, err
	}
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return tl, err
		}
		var dst any
		switch key {
		case "head":
			dst = &tl.Head
		case "versions":
			dst = &tl.Versions
		case "steps":
			dst = &tl.Steps
		case "live":
			dst = &tl.Live
		case "targets":
			return tl, nil
		default:
			dst = new(json.RawMessage)
		}
		if err := dec.Decode(dst); err != nil {
			return tl, err
		}
	}
	return tl, nil
}

// begin starts the passive subscriber: it long-polls /timeline/watch on
// its own connection, moving its cursor to each head it is told about.
func (w *liveWL) begin(ctx context.Context, in *instance) {
	ctx, w.subCancel = context.WithCancel(ctx)
	w.subDone = make(chan error, 1)
	sub := newClient(in.base)
	since := w.ids[len(w.ids)-1]
	go func() {
		defer sub.close()
		for {
			data, err := sub.do(ctx, http.MethodGet, "/timeline/watch?since="+url.QueryEscape(since), nil)
			if ctx.Err() != nil {
				w.subDone <- nil
				return
			}
			if err != nil {
				w.subDone <- fmt.Errorf("passive subscriber: %w", err)
				return
			}
			var wj watchJSON
			if err := json.Unmarshal(data, &wj); err != nil || wj.Head == "" {
				w.subDone <- fmt.Errorf("passive subscriber: bad watch answer %.200s", data)
				return
			}
			since = wj.Head
		}
	}()
}

// end stops the passive subscriber and drops the cycle buffers, so the
// end-of-run heap holds the server's state and not the client's.
func (w *liveWL) end() error {
	w.bufs = [3]bytes.Buffer{}
	if w.subCancel == nil {
		return nil
	}
	w.subCancel()
	return <-w.subDone
}

func (w *liveWL) op(ctx context.Context, c *client, i int) (time.Duration, error) {
	k := len(w.ids)
	parent := w.ids[k-1]
	var commit, watch, tl []byte
	d, err := timed(func() (err error) {
		if commit, err = c.doInto(ctx, &w.bufs[0], http.MethodPost, "/versions", commitBody(w.csvJSON[k], parent, k+1)); err != nil {
			return err
		}
		if watch, err = c.doInto(ctx, &w.bufs[1], http.MethodGet, "/timeline/watch?since="+url.QueryEscape(parent), nil); err != nil {
			return err
		}
		tl, err = c.doInto(ctx, &w.bufs[2], http.MethodPost, "/timeline", []byte("{}"))
		return err
	})
	if commit != nil {
		// The commit landed even if a later request failed: the chain
		// grew, and the next cycle must build on the new head.
		v, cerr := checkCommit(commit, parent, k+1)
		if cerr == nil {
			w.ids = append(w.ids, v.ID)
		}
		err = errors.Join(err, cerr)
	}
	if err != nil {
		return d, err
	}
	v := w.ids[k]
	var wj watchJSON
	if err := json.Unmarshal(watch, &wj); err != nil {
		return d, fmt.Errorf("watch answer: %w", err)
	}
	if wj.Head != v || len(wj.Events) == 0 {
		return d, fmt.Errorf("watch answer: head %s with %d events, want head %s", wj.Head, len(wj.Events), v)
	}
	if ev := wj.Events[len(wj.Events)-1]; ev.Head != v || ev.Mode != "extend" || ev.Steps != k {
		return d, fmt.Errorf("watch event: head %s mode %s steps %d, want head %s extended to %d steps", ev.Head, ev.Mode, ev.Steps, v, k)
	}
	var corrupt func(*timelineJSON)
	if w.corrupt != nil {
		corrupt = func(t *timelineJSON) { w.corrupt(i, t) }
	}
	return d, checkLiveTimeline(tl, w.ids, corrupt)
}

// read ---------------------------------------------------------------------

type diffJSON struct {
	From           string   `json:"from"`
	To             string   `json:"to"`
	UpdateDistance int      `json:"updateDistance"`
	Removed        []string `json:"removed"`
	Inserted       []string `json:"inserted"`
}

type changesJSON struct {
	Version      string   `json:"version"`
	Parent       string   `json:"parent"`
	Materialized bool     `json:"materialized"`
	Removed      []string `json:"removed"`
	Inserted     []struct {
		Key string `json:"key"`
	} `json:"inserted"`
	Patched []struct {
		Key string `json:"key"`
	} `json:"patched"`
}

// diffExpect is one expected change answer, computed from the generated
// snapshots with diff.ResultFromPair before the clock starts.
type diffExpect struct {
	removed, inserted, patched []string
	distance                   int
}

// readWL is the read path: one client over a chain several times longer
// than the store's LRUs, favouring recent versions, with a fixed share of
// cold requests that miss every cache.
type readWL struct {
	sz      sizes
	ch      chain
	csvJSON [][]byte
	ops     []readOp
	rows    []int                 // entities per version
	exp     map[[2]int]diffExpect // (from, to) → expected answer

	ids []string
	buf bytes.Buffer // the current answer

	corrupt func(i int, body []byte) []byte
}

func newRead(seed int64, sz sizes) (*readWL, error) {
	ch := churnChain(seed, sz.rows, sz.versions, sz.churn)
	csvJSON, err := encodeCSVs(ch)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	w := &readWL{sz: sz, ch: ch, csvJSON: csvJSON, ops: readOps(rng, sz.versions, sz.ops), exp: map[[2]int]diffExpect{}}
	for _, text := range ch.csv {
		w.rows = append(w.rows, strings.Count(text, "\n")-1)
	}
	// Expected answers for every pair the ops and the warm-up ask about.
	need := map[[2]int]bool{}
	for _, op := range w.ops {
		switch op.class {
		case opDiffAdj, opDiffNear:
			need[[2]int{op.v - op.gap, op.v}] = true
		case opChanges:
			need[[2]int{op.v - 1, op.v}] = true
		}
	}
	for _, op := range w.warmOps() {
		need[[2]int{op.v - max(op.gap, 1), op.v}] = true
	}
	tables := map[int]*table.Table{}
	parsed := func(v int) (*table.Table, error) {
		if t, ok := tables[v]; ok {
			return t, nil
		}
		t, err := parseCSV(ch.csv[v])
		tables[v] = t
		return t, err
	}
	for p := range need {
		src, err := parsed(p[0])
		if err != nil {
			return nil, err
		}
		tgt, err := parsed(p[1])
		if err != nil {
			return nil, err
		}
		res, err := diff.ResultFromPair(src, tgt, 1e-9)
		if err != nil {
			return nil, err
		}
		e := diffExpect{removed: res.Removed, inserted: res.Inserted, distance: res.UpdateDistance}
		seen := map[string]bool{}
		for _, ch := range res.Changes {
			if !seen[ch.Key] {
				seen[ch.Key] = true
				e.patched = append(e.patched, ch.Key)
			}
		}
		w.exp[p] = e
	}
	return w, nil
}

// warmOps touches every hot-window entry once, so the timed phase starts
// with the hot caches filled.
func (w *readWL) warmOps() []readOp {
	var ops []readOp
	for v := w.sz.versions - readHotWindow; v < w.sz.versions; v++ {
		ops = append(ops,
			readOp{class: opCSV, v: v},
			readOp{class: opChanges, v: v},
			readOp{class: opDiffAdj, v: v, gap: 1},
			readOp{class: opDiffNear, v: v, gap: 2})
	}
	return ops
}

func (w *readWL) nops() int { return len(w.ops) }

func (w *readWL) class(i int) string {
	if w.ops[i].cold {
		return w.ops[i].class + "/cold"
	}
	return w.ops[i].class + "/hot"
}
func (w *readWL) begin(context.Context, *instance) {}
func (w *readWL) finish() error                    { return nil }

// end drops the answer buffer, so the end-of-run heap holds the server's
// state and not the client's.
func (w *readWL) end() error {
	w.buf = bytes.Buffer{}
	return nil
}

func (w *readWL) setup(ctx context.Context, c *client) error {
	ids, err := ingest(ctx, c, w.csvJSON, nil, len(w.csvJSON))
	if err != nil {
		return err
	}
	w.ids = ids
	for _, op := range w.warmOps() {
		if _, err := w.send(ctx, c, -1, op); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *readWL) path(op readOp) string {
	id := w.ids[op.v]
	switch op.class {
	case opCSV:
		return "/versions/" + id + "/csv"
	case opDiffAdj, opDiffNear:
		return "/diff?from=" + w.ids[op.v-op.gap] + "&to=" + id
	case opChanges:
		return "/versions/" + id + "/changes"
	default:
		return "/versions/" + id
	}
}

func (w *readWL) op(ctx context.Context, c *client, i int) (time.Duration, error) {
	return w.send(ctx, c, i, w.ops[i])
}

func (w *readWL) send(ctx context.Context, c *client, i int, op readOp) (time.Duration, error) {
	var data []byte
	d, err := timed(func() (err error) {
		data, err = c.doInto(ctx, &w.buf, http.MethodGet, w.path(op), nil)
		return err
	})
	if err != nil {
		return d, err
	}
	if w.corrupt != nil {
		data = w.corrupt(i, data)
	}
	return d, w.check(op, data)
}

func (w *readWL) check(op readOp, data []byte) error {
	id := w.ids[op.v]
	switch op.class {
	case opCSV:
		if got := contentID(data, chainKey); got != id {
			return fmt.Errorf("csv of %s hashes to %s", id, got)
		}
		if rows := strings.Count(string(data), "\n") - 1; rows != w.rows[op.v] {
			return fmt.Errorf("csv of %s has %d rows, want %d", id, rows, w.rows[op.v])
		}
	case opDiffAdj, opDiffNear:
		var dj diffJSON
		if err := json.Unmarshal(data, &dj); err != nil {
			return fmt.Errorf("diff answer: %w", err)
		}
		e := w.exp[[2]int{op.v - op.gap, op.v}]
		if dj.From != w.ids[op.v-op.gap] || dj.To != id || dj.UpdateDistance != e.distance ||
			!slices.Equal(dj.Removed, e.removed) || !slices.Equal(dj.Inserted, e.inserted) {
			return fmt.Errorf("diff %s→%s: distance %d removed %d inserted %d, want distance %d removed %d inserted %d",
				dj.From, dj.To, dj.UpdateDistance, len(dj.Removed), len(dj.Inserted), e.distance, len(e.removed), len(e.inserted))
		}
	case opChanges:
		var cj changesJSON
		if err := json.Unmarshal(data, &cj); err != nil {
			return fmt.Errorf("changes answer: %w", err)
		}
		if cj.Version != id || (cj.Parent != "" && cj.Parent != w.ids[op.v-1]) {
			return fmt.Errorf("changes of %s: version %s parent %s", id, cj.Version, cj.Parent)
		}
		if cj.Materialized {
			// Stored whole: the version carries no ops to compare.
			return nil
		}
		e := w.exp[[2]int{op.v - 1, op.v}]
		var ins, pat []string
		for _, r := range cj.Inserted {
			ins = append(ins, r.Key)
		}
		for _, r := range cj.Patched {
			pat = append(pat, r.Key)
		}
		slices.Sort(pat)
		want := append([]string(nil), e.patched...)
		slices.Sort(want)
		if !slices.Equal(cj.Removed, e.removed) || !slices.Equal(ins, e.inserted) || !slices.Equal(pat, want) {
			return fmt.Errorf("changes of %s: removed %d inserted %d patched %d, want %d %d %d",
				id, len(cj.Removed), len(ins), len(pat), len(e.removed), len(e.inserted), len(want))
		}
	default:
		var vj versionJSON
		if err := json.Unmarshal(data, &vj); err != nil {
			return fmt.Errorf("version answer: %w", err)
		}
		parent := ""
		if op.v > 0 {
			parent = w.ids[op.v-1]
		}
		if vj.ID != id || vj.Parent != parent || vj.Seq != op.v+1 || vj.Rows != w.rows[op.v] || len(vj.Lineage) != op.v+1 {
			return fmt.Errorf("version %s: id %s parent %s seq %d rows %d lineage %d", id, vj.ID, vj.Parent, vj.Seq, vj.Rows, len(vj.Lineage))
		}
	}
	return nil
}
