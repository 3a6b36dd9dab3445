package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"charles/internal/core"
	"charles/internal/gen"
	"charles/internal/store"
)

// withoutCached drops the answer-level "cached" flag — the one field that
// legitimately differs between a cold and a warm answer — and keeps every
// other field's bytes as they came.
func withoutCached(t *testing.T, body []byte) string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("answer %s: %v", body, err)
	}
	delete(m, "cached")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestAnswersIndependentOfWorkersAndCache pins byte-identical answers
// whatever the worker count and whoever filled the cache: for one step,
// POST /summarize answers the same cold on a fresh server and warm after a
// head-relative POST /timeline seeded it, under GOMAXPROCS 1, 2 and 8; and
// explicit-head and head-relative POST /timeline answers are each the same
// in every one of those cases. A cold /summarize runs the engine with every
// worker while a timeline's steps run with one each, so any tie the merge
// broke by arrival order would show here.
func TestAnswersIndependentOfWorkersAndCache(t *testing.T) {
	snaps, err := gen.Chain(gen.ChainConfig{N: 300, Steps: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	want := map[string]string{}
	check := func(what string, procs int, body []byte) {
		t.Helper()
		got := withoutCached(t, body)
		if w, ok := want[what]; !ok {
			want[what] = got
		} else if got != w {
			t.Errorf("%s at GOMAXPROCS=%d differs from the first answer:\n got %s\nwant %s", what, procs, got, w)
		}
	}
	ok := func(resp *http.Response, body []byte) []byte {
		t.Helper()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		return body
	}
	// Step 1 → 2 moves salary, bonus and overtime.
	targets := []string{"salary", "bonus", "overtime"}
	summarize := func(base string, v []store.Version, target string, wantCached bool, procs int) {
		t.Helper()
		body := ok(postJSON(t, base+"/summarize", summarizeRequest{From: v[1].ID, To: v[2].ID, Target: target}))
		var sr summarizeResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Cached != wantCached {
			t.Fatalf("summarize %s at GOMAXPROCS=%d: cached=%v, want %v", target, procs, sr.Cached, wantCached)
		}
		check("summarize "+target, procs, body)
	}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)

		// Cold pair questions, twice over on fresh servers, then the
		// explicit-head walk (cold on its first step) and the live answer.
		for rep := 0; rep < 2; rep++ {
			_, ts := newTestServer(t)
			v := commitChain(t, ts.URL, snaps)
			for _, target := range targets {
				summarize(ts.URL, v, target, false, procs)
			}
			check("explicit timeline", procs, ok(postJSON(t, ts.URL+"/timeline", timelineRequest{Head: v[2].ID})))
			check("live timeline", procs, ok(postJSON(t, ts.URL+"/timeline", timelineRequest{})))
		}

		// A head-relative timeline first: its steps seed the pair cache.
		_, ts := newTestServer(t)
		v := commitChain(t, ts.URL, snaps)
		check("live timeline", procs, ok(postJSON(t, ts.URL+"/timeline", timelineRequest{})))
		for _, target := range targets {
			summarize(ts.URL, v, target, true, procs)
		}
		check("explicit timeline", procs, ok(postJSON(t, ts.URL+"/timeline", timelineRequest{Head: v[2].ID})))
		check("explicit timeline", procs, ok(postJSON(t, ts.URL+"/timeline", timelineRequest{Head: v[2].ID})))
	}
}

// TestTimelineWalkMemo pins the step memo behind request-time walks, at one
// α other than the default throughout so the live path never answers: a
// walk at head k+1 after one at head k builds one pair's acceleration state,
// a single-target walk after an all-target walk builds none, and a warm
// repeat runs nothing at all.
func TestTimelineWalkMemo(t *testing.T) {
	srv, ts := newTestServer(t)
	snaps, err := gen.Chain(gen.ChainConfig{N: 40, Steps: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	v := commitChain(t, ts.URL, snaps)
	alpha := 0.7
	walk := func(req timelineRequest) timelineResponse {
		t.Helper()
		req.Alpha = &alpha
		resp, body := postJSON(t, ts.URL+"/timeline", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("timeline %+v status %d: %s", req, resp.StatusCode, body)
		}
		var tr timelineResponse
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatal(err)
		}
		if tr.Live {
			t.Fatalf("timeline %+v answered live", req)
		}
		return tr
	}
	// builds runs one walk and reports the atom caches and split indexes it
	// built.
	builds := func(req timelineRequest) (caches, indexes uint64) {
		t.Helper()
		c0, i0 := core.AccelBuilds()
		walk(req)
		c1, i1 := core.AccelBuilds()
		return c1 - c0, i1 - i0
	}

	walk(timelineRequest{Head: v[2].ID})
	if c, i := builds(timelineRequest{Head: v[3].ID}); c != 1 || i != 1 {
		t.Errorf("walk at the next head built %d caches / %d indexes, want 1 / 1 (the new pair)", c, i)
	}
	if c, i := builds(timelineRequest{Head: v[3].ID, Target: "salary"}); c != 0 || i != 0 {
		t.Errorf("single-target walk after an all-target walk built %d caches / %d indexes, want none", c, i)
	}

	exec := srv.Stats().Executions
	resp, body := postJSON(t, ts.URL+"/timeline", timelineRequest{Head: v[3].ID, Target: "salary", tuning: tuning{Alpha: &alpha}})
	var tr timelineResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &tr) != nil || !tr.Cached {
		t.Fatalf("warm repeat status %d cached=%v: %s", resp.StatusCode, tr.Cached, body)
	}
	if got := srv.Stats().Executions - exec; got != 0 {
		t.Errorf("warm repeat ran %d computations, want 0", got)
	}
}

// TestTimelineJoinerOutlivesFirstCancel pins per-waiter cancellation: a
// request that joined an identical in-flight walk does not inherit the first
// requester's cancellation — when the first client disconnects, the joiner
// computes the answer itself and answers 200.
func TestTimelineJoinerOutlivesFirstCancel(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	ids := commitLineage(t, st, 6)
	srv := NewServer(st, 64)
	firstCtx := make(chan context.Context, 1)
	srv.testDelay = func(r *http.Request) {
		if r.URL.Path == "/timeline" {
			select {
			case firstCtx <- r.Context():
			default:
			}
		}
	}
	gate := make(chan struct{})
	var blocked atomic.Int64
	srv.stepHook = func() {
		blocked.Add(1)
		<-gate
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	}()

	body := fmt.Sprintf(`{"head":%q}`, ids[len(ids)-1])
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/timeline", strings.NewReader(body))
		if err != nil {
			first <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		first <- err
	}()
	// Every step the first walk's pool can start blocks in the hook; after
	// that its cache counters stand still.
	deadline := time.Now().Add(10 * time.Second)
	for blocked.Load() < int64(min(runtime.GOMAXPROCS(0), len(ids)-1)) {
		if time.Now().After(deadline) {
			t.Fatal("first walk never started")
		}
		time.Sleep(time.Millisecond)
	}
	serverCtx := <-firstCtx

	type result struct {
		code int
		body string
		err  error
	}
	second := make(chan result, 1)
	misses := srv.Stats().Misses
	go func() {
		resp, err := http.Post(ts.URL+"/timeline", "application/json", strings.NewReader(body))
		if err != nil {
			second <- result{err: err}
			return
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		second <- result{resp.StatusCode, string(out), err}
	}()
	// The joiner is in once it has missed the answer memo.
	for srv.Stats().Misses == misses {
		if time.Now().After(deadline) {
			t.Fatal("second request never joined the walk")
		}
		time.Sleep(time.Millisecond)
	}

	cancel()
	if err := <-first; err == nil {
		t.Fatal("cancelled first request reported success")
	}
	select {
	case <-serverCtx.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("server never saw the first client leave")
	}
	close(gate)
	select {
	case r := <-second:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.code != http.StatusOK {
			t.Fatalf("joiner answered %d, want 200: %s", r.code, r.body)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("joiner never answered")
	}
}

// TestTimelineRejectsKeyTarget pins that a key column is not a timeline
// target: on an integer-keyed table, target "id" is a 400, never an
// all-no-change timeline.
func TestTimelineRejectsKeyTarget(t *testing.T) {
	_, ts := newTestServer(t)
	parent := ""
	for i := 0; i < 3; i++ {
		csv := fmt.Sprintf("id,dept,salary\n1,eng,%d\n2,eng,%d\n3,hr,%d\n", 1000+10*i, 2000+20*i, 3000+30*i)
		resp, body := postJSON(t, ts.URL+"/versions", commitRequest{CSV: csv, Key: []string{"id"}, Parent: parent})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("commit status %d: %s", resp.StatusCode, body)
		}
		var v store.Version
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		parent = v.ID
	}
	resp, body := postJSON(t, ts.URL+"/timeline", timelineRequest{Target: "id"})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "unknown target attribute") {
		t.Errorf("key target: status %d: %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/timeline", timelineRequest{Target: "salary"}); resp.StatusCode != http.StatusOK {
		t.Errorf("numeric target: status %d: %s", resp.StatusCode, body)
	}
}
