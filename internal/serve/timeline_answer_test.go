package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"charles/internal/core"
	"charles/internal/gen"
	"charles/internal/history"
	"charles/internal/model"
	"charles/internal/score"
	"charles/internal/store"
	"charles/internal/table"
)

// timelineTargetJSON is one attribute's summarized evolution.
type timelineTargetJSON struct {
	Target string             `json:"target"`
	Steps  []timelineStepJSON `json:"steps"`
	Drifts []driftJSON        `json:"drifts,omitempty"`
}

// timelineResponse is a whole POST /timeline answer as one struct (see
// timelineAnswer for the fields). Tests decode answers into it, and
// encodeTimeline fills it for the oracle.
type timelineResponse struct {
	Head     string               `json:"head"`
	Versions []string             `json:"versions"` // root → head
	Steps    int                  `json:"steps"`
	Live     bool                 `json:"live,omitempty"`
	Cached   bool                 `json:"cached,omitempty"`
	Targets  []timelineTargetJSON `json:"targets"`
	Skipped  map[string]string    `json:"skipped,omitempty"`
}

// encodeTimeline renders a MultiTimeline over the version ids as one
// timelineResponse, encoding every step and drift afresh. It is the
// whole-answer encoder the served answers are pinned against.
func encodeTimeline(head string, ids []string, live bool, mt *history.MultiTimeline) timelineResponse {
	resp := timelineResponse{
		Head: head, Versions: ids, Steps: mt.Steps,
		Skipped: mt.Skipped, Live: live,
	}
	for _, attr := range mt.Attrs {
		tl := mt.Timelines[attr]
		tj := timelineTargetJSON{Target: attr}
		for _, hs := range tl.Steps {
			sj := timelineStepJSON{From: ids[hs.From], To: ids[hs.To], NoChange: hs.NoChange}
			if len(hs.Ranked) > 0 {
				sj.Ranked = EncodeRanked(hs.Ranked)
			}
			tj.Steps = append(tj.Steps, sj)
		}
		for _, d := range tl.Drifts() {
			tj.Drifts = append(tj.Drifts, driftJSON{
				StepA: d.StepA, StepB: d.StepB,
				SamePartitioning: d.SamePartitioning,
				Note:             d.Note,
			})
		}
		resp.Targets = append(resp.Targets, tj)
	}
	return resp
}

// oracleAnswer is what writeJSON sends for encodeTimeline's answer, or the
// error that keeps the answer from being encoded at all.
func oracleAnswer(head string, ids []string, live, cached bool, mt *history.MultiTimeline) (string, error) {
	resp := encodeTimeline(head, ids, live, mt)
	resp.Cached = cached
	if _, err := json.Marshal(resp); err != nil {
		return "", err
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, resp)
	return rec.Body.String(), nil
}

// answerBytes is what ans.write sends.
func answerBytes(t *testing.T, ans *timelineAnswer, cached bool) string {
	t.Helper()
	rec := httptest.NewRecorder()
	ans.write(rec, cached)
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("answer written with status %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	return rec.Body.String()
}

// commonRows projects a gen.MutateChain lineage onto the keys every
// version shares, as the history package's maintainer tests do: a timeline
// step needs a fixed entity set.
func commonRows(t *testing.T, snaps []*table.Table) []*table.Table {
	t.Helper()
	keyOf := func(snap *table.Table, r int) string {
		k, err := snap.KeyOf(r)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	common := map[string]int{}
	for _, snap := range snaps {
		for r := 0; r < snap.NumRows(); r++ {
			common[keyOf(snap, r)]++
		}
	}
	out := make([]*table.Table, len(snaps))
	for i, snap := range snaps {
		keep := make([]bool, snap.NumRows())
		for r := range keep {
			keep[r] = common[keyOf(snap, r)] == len(snaps)
		}
		proj, err := snap.Filter(keep)
		if err != nil {
			t.Fatal(err)
		}
		if err := proj.SetKey("id"); err != nil {
			t.Fatal(err)
		}
		out[i] = proj
	}
	return out
}

// categoricalChain is a lineage whose steps move only a string attribute:
// its timelines have no targets, and every answer reads "targets": null.
func categoricalChain(t *testing.T) []*table.Table {
	t.Helper()
	base, err := gen.Chain(gen.ChainConfig{N: 12, Steps: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	snaps := []*table.Table{base[0]}
	for i := 0; i < 2; i++ {
		next := snaps[len(snaps)-1].Clone()
		if err := next.MustColumn("dept").Set(i, table.S("OPS")); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, next)
	}
	return snaps
}

// TestTimelineAnswerMatchesStructEncoder is the differential test of the
// timeline encoder. A lineage is committed one version at a time, and at
// each new head the served live answer (built on the previous head's
// entries) and walk answer each equal writeJSON of the whole-answer struct
// byte for byte, cold and cached. The lineages are gen.Chain, projected
// gen.MutateChain and one that moves no numeric attribute ("targets":
// null); their first heads have one step and no drifts, and the mutated
// ones skip non-numeric attributes. (TestTimelineAnswerUnencodable covers
// an answer JSON cannot carry.)
func TestTimelineAnswerMatchesStructEncoder(t *testing.T) {
	chain, err := gen.Chain(gen.ChainConfig{N: 40, Steps: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	lineages := map[string][]*table.Table{"chain": chain, "categorical": categoricalChain(t)}
	for _, seed := range []int64{1, 2, 3} {
		snaps, err := gen.MutateChain(gen.FuzzConfig{N: 20, Steps: 6, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		lineages[fmt.Sprintf("mutate seed %d", seed)] = commonRows(t, snaps)
	}
	type ask struct {
		body         timelineRequest
		live, cached bool
	}
	var oneStep, nulls, skips int
	for name, snaps := range lineages {
		t.Run(name, func(t *testing.T) {
			st, err := store.Open("")
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(NewServer(st, 0))
			t.Cleanup(ts.Close)
			var ids []string
			var mats []*table.Table
			for _, snap := range snaps {
				parent := ""
				if len(ids) > 0 {
					parent = ids[len(ids)-1]
				}
				v, err := st.Commit(snap, parent, "step")
				if errors.Is(err, store.ErrLineageConflict) {
					continue // the projection repeats an earlier version
				}
				if err != nil {
					t.Fatal(err)
				}
				mat, err := st.Checkout(v.ID)
				if err != nil {
					t.Fatal(err)
				}
				ids, mats = append(ids, v.ID), append(mats, mat)
				if len(ids) < 2 {
					continue
				}
				mt, err := history.Walk(context.Background(), mats, "", core.DefaultOptions(""), nil)
				if err != nil {
					t.Fatal(err)
				}
				if mt.Steps == 1 {
					oneStep++
				}
				if len(mt.Attrs) == 0 {
					nulls++
				}
				if len(mt.Skipped) > 0 {
					skips++
				}
				for _, a := range []ask{
					{timelineRequest{}, true, false},
					{timelineRequest{}, true, true},
					{timelineRequest{Head: v.ID}, false, false},
					{timelineRequest{Head: v.ID}, false, true},
				} {
					want, err := oracleAnswer(v.ID, ids, a.live, a.cached, mt)
					if err != nil {
						t.Fatalf("head %d: the struct encoder cannot encode the answer: %v", len(ids)-1, err)
					}
					resp, body := postJSON(t, ts.URL+"/timeline", a.body)
					if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
						t.Fatalf("head %d live=%v: status %d, content type %q: %s", len(ids)-1, a.live, resp.StatusCode, resp.Header.Get("Content-Type"), body)
					}
					if string(body) != want {
						t.Errorf("head %d live=%v cached=%v: served answer differs from the struct encoder's\n got %s\nwant %s", len(ids)-1, a.live, a.cached, body, want)
					}
				}
			}
			if len(ids) < 3 {
				t.Fatalf("lineage of %d versions", len(ids))
			}
		})
	}
	if oneStep == 0 || nulls == 0 || skips == 0 {
		t.Errorf("cases not covered: %d one-step answers, %d null-target, %d with skipped attributes", oneStep, nulls, skips)
	}
}

// TestTimelineAnswerUnencodable pins the answer to a timeline JSON cannot
// carry. A hand-built one-step timeline whose summary has a NaN intercept
// fails encodeTimelineAnswer with the JSON encoder's UnsupportedValueError,
// as it fails the struct encoder, and the handler's error path answers it
// with a 500, never a partial or empty 200.
func TestTimelineAnswerUnencodable(t *testing.T) {
	ids := []string{"v0", "v1"}
	nan := &model.Summary{Target: "pay", CTs: []model.CT{{
		Tran: model.Transformation{Target: "pay", Inputs: []string{"pay"}, Coef: []float64{1}, Intercept: math.NaN()},
	}}}
	mt := &history.MultiTimeline{
		Attrs: []string{"pay"},
		Timelines: map[string]*history.Timeline{"pay": {Target: "pay", Steps: []history.Step{
			{From: 0, To: 1, Ranked: []core.Ranked{{Summary: nan, Breakdown: &score.Breakdown{}}}},
		}}},
		Steps: 1,
	}
	if _, err := oracleAnswer("v1", ids, false, false, mt); err == nil {
		t.Fatal("the struct encoder encoded a NaN")
	}
	_, _, err := encodeTimelineAnswer("v1", ids, false, mt, nil)
	var unsupported *json.UnsupportedValueError
	if !errors.As(err, &unsupported) {
		t.Fatalf("encodeTimelineAnswer: %v, want a json.UnsupportedValueError", err)
	}
	rec := httptest.NewRecorder()
	writeError(rec, err)
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "unsupported value") {
		t.Errorf("served %d: %s", rec.Code, rec.Body.String())
	}
}

// TestLiveAnswerReusesEntries pins the per-commit cost of a live answer:
// after one commit, the new head's answer reuses every entry of the
// previous head's answer — the same bytes, not a re-encoding — and encodes
// only the new step's entries: per target, its step and its drift against
// the step before.
func TestLiveAnswerReusesEntries(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, 0)
	snaps, err := gen.Chain(gen.ChainConfig{N: 30, Steps: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	k := len(snaps) - 2
	ids := commitSnaps(t, st, snaps[:k+1])
	sh := &shardRef{tenant: DefaultDatasetName, dataset: DefaultDatasetName, st: st}
	ls := &liveShard{key: "unregistered", watchers: map[*liveWatcher]struct{}{}}
	answer := func() *timelineAnswer {
		t.Helper()
		ans, _, err := ls.headAnswer(context.Background(), srv, sh)
		if err != nil {
			t.Fatal(err)
		}
		return ans
	}
	answer()
	before := ls.entries
	v, err := st.Commit(snaps[k+1], ids[k], "live")
	if err != nil {
		t.Fatal(err)
	}
	ans := answer()
	mt, at := ls.maint.Timeline(), ls.maint.Versions()

	written := map[*byte]bool{}
	for _, p := range ans.parts {
		written[&p[0]] = true
	}
	for key, old := range before {
		if now, ok := ls.entries[key]; !ok || &now[0] != &old[0] || !written[&old[0]] {
			t.Errorf("entry %v of head k was not reused by head k+1", key)
		}
	}
	head := v.ID
	var steps, drifts int
	for key := range ls.entries {
		if _, ok := before[key]; ok {
			continue
		}
		switch {
		case key.ids[1] == head && key.ids[2] == "":
			steps++
		case key.ids[2] == head:
			drifts++
		default:
			t.Errorf("head k+1 encoded entry %v, which its new step does not determine", key)
		}
	}
	if steps != len(mt.Attrs) || drifts != len(mt.Attrs) || len(ls.entries) != len(before)+2*len(mt.Attrs) {
		t.Errorf("head k+1 encoded %d step and %d drift entries (%d kept, %d before), want %d of each",
			steps, drifts, len(ls.entries), len(before), len(mt.Attrs))
	}
	want, err := oracleAnswer(head, at, true, false, mt)
	if err != nil {
		t.Fatal(err)
	}
	if got := answerBytes(t, ans, false); got != want {
		t.Errorf("reused answer differs from the struct encoder's\n got %s\nwant %s", got, want)
	}
}

// TestLiveAnswerConcurrentHeads answers live from four goroutines at once
// on one shard while the next head is committed, so answers at the old
// head, the advance to the new one and answers built on its kept entries
// interleave. Under -race it pins that the shard's state is shared safely,
// and every answer equals the struct encoder's for one of the two heads
// byte for byte.
func TestLiveAnswerConcurrentHeads(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, 0)
	snaps, err := gen.Chain(gen.ChainConfig{N: 30, Steps: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ids := commitSnaps(t, st, snaps[:len(snaps)-1])

	sh := &shardRef{tenant: DefaultDatasetName, dataset: DefaultDatasetName, st: st}
	ls := &liveShard{key: "unregistered", watchers: map[*liveWatcher]struct{}{}}
	var (
		mu       sync.Mutex
		answers  = map[string]bool{} // each distinct answer body
		second   atomic.Value        // the second head's id, once committed
		started  = make(chan struct{})
		startOne sync.Once
		stop     = make(chan struct{})
		wg       sync.WaitGroup
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer startOne.Do(func() { close(started) })
			// Each goroutine answers at least ten times and until it has
			// answered at the second head.
			for i := 0; ; i++ {
				ans, _, err := ls.headAnswer(context.Background(), srv, sh)
				if err != nil {
					t.Error(err)
					return
				}
				rec := httptest.NewRecorder()
				ans.write(rec, false)
				body := rec.Body.String()
				mu.Lock()
				answers[body] = true
				mu.Unlock()
				startOne.Do(func() { close(started) })
				h, _ := second.Load().(string)
				select {
				case <-stop:
					return
				default:
				}
				if i >= 9 && h != "" && strings.Contains(body, `"head": "`+h+`"`) {
					return
				}
			}
		}()
	}
	<-started
	v, err := st.Commit(snaps[len(snaps)-1], ids[len(ids)-1], "live")
	if err != nil {
		close(stop)
		wg.Wait()
		t.Fatal(err)
	}
	second.Store(v.ID)
	wg.Wait()

	ids = append(ids, v.ID)
	mats, err := history.MaterializeChainContext(context.Background(), st, ids)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for k := len(ids) - 2; k < len(ids); k++ {
		mt, err := history.Walk(context.Background(), mats[:k+1], "", core.DefaultOptions(""), nil)
		if err != nil {
			t.Fatal(err)
		}
		w, err := oracleAnswer(ids[k], ids[:k+1], true, false, mt)
		if err != nil {
			t.Fatal(err)
		}
		want[w] = true
	}
	for got := range answers {
		if !want[got] {
			t.Fatalf("an answer differs from the struct encoder's at both heads:\n%s", got)
		}
	}
}

// discardWriter is an http.ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d discardWriter) WriteHeader(int)             {}

// BenchmarkTimelineAnswer measures the live answer built per commit, at 80
// and 156 steps of a maintained gen.Chain timeline: "struct" builds the
// whole answer struct and writes it with writeJSON, as every answer was
// once encoded; "entries" encodes it reusing the previous head's entries,
// as a live shard does, and writes the parts.
func BenchmarkTimelineAnswer(b *testing.B) {
	snaps, err := gen.Chain(gen.ChainConfig{N: 200, Steps: 156, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]string, len(snaps))
	for i := range ids {
		ids[i] = fmt.Sprintf("%012x", i)
	}
	m, err := history.NewTimelineMaintainerContext(context.Background(), snaps[:2], ids[:2], core.DefaultOptions(""))
	if err != nil {
		b.Fatal(err)
	}
	// extendTo extends m until its head is ids[n] and returns its timeline
	// and versions there.
	extendTo := func(n int) (*history.MultiTimeline, []string) {
		for m.Steps() < n {
			if err := m.Extend(ids[m.Steps()+1], snaps[m.Steps()+1]); err != nil {
				b.Fatal(err)
			}
		}
		return m.Timeline(), m.Versions()
	}
	w := discardWriter{h: http.Header{}}
	for _, n := range []int{80, 156} {
		head := ids[n]
		prevMT, prevIDs := extendTo(n - 1)
		mt, at := extendTo(n)
		_, prev, err := encodeTimelineAnswer(ids[n-1], prevIDs, true, prevMT, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("steps=%d/struct", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				writeJSON(w, http.StatusOK, encodeTimeline(head, at, true, mt))
			}
		})
		b.Run(fmt.Sprintf("steps=%d/entries", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ans, _, err := encodeTimelineAnswer(head, at, true, mt, prev)
				if err != nil {
					b.Fatal(err)
				}
				ans.write(w, false)
			}
		})
	}
}
