package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"charles/internal/core"
	"charles/internal/gen"
	"charles/internal/store"
	"charles/internal/table"
)

// commitChain commits the generated version chain and returns the versions
// in commit (root → head) order.
func commitChain(t *testing.T, base string, snaps []*table.Table) []store.Version {
	t.Helper()
	out := make([]store.Version, len(snaps))
	parent := ""
	for i, s := range snaps {
		resp, body := postJSON(t, base+"/versions", commitRequest{
			CSV: csvOf(t, s), Key: []string{"id"}, Parent: parent, Message: "step",
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("commit %d status %d: %s", i, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &out[i]); err != nil {
			t.Fatal(err)
		}
		parent = out[i].ID
	}
	return out
}

func TestTimelineEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	snaps, err := gen.Chain(gen.ChainConfig{N: 40, Steps: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	versions := commitChain(t, ts.URL, snaps)

	// Default request: head = latest commit, every changed numeric attribute.
	resp, body := postJSON(t, ts.URL+"/timeline", timelineRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timeline status %d: %s", resp.StatusCode, body)
	}
	var tr timelineResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Head != versions[len(versions)-1].ID {
		t.Errorf("head = %s, want latest commit", tr.Head)
	}
	if len(tr.Versions) != len(snaps) || tr.Steps != len(snaps)-1 {
		t.Fatalf("versions = %d, steps = %d", len(tr.Versions), tr.Steps)
	}
	for i, v := range versions {
		if tr.Versions[i] != v.ID {
			t.Errorf("versions[%d] = %s, want root→head order", i, tr.Versions[i])
		}
	}
	byTarget := map[string]timelineTargetJSON{}
	for _, tj := range tr.Targets {
		byTarget[tj.Target] = tj
		if len(tj.Steps) != tr.Steps {
			t.Errorf("%s: %d steps, want %d", tj.Target, len(tj.Steps), tr.Steps)
		}
		if len(tj.Drifts) != tr.Steps-1 {
			t.Errorf("%s: %d drifts, want %d", tj.Target, len(tj.Drifts), tr.Steps-1)
		}
	}
	for _, want := range []string{"salary", "bonus", "overtime"} {
		if _, ok := byTarget[want]; !ok {
			t.Errorf("target %s missing (got %v)", want, keysOf(byTarget))
		}
	}
	// salary changes every step; its steps must carry summaries.
	for i, step := range byTarget["salary"].Steps {
		if step.NoChange || len(step.Ranked) == 0 {
			t.Errorf("salary step %d: NoChange=%v ranked=%d", i, step.NoChange, len(step.Ranked))
		}
		if step.From != versions[i].ID || step.To != versions[i+1].ID {
			t.Errorf("salary step %d endpoints %s→%s", i, step.From, step.To)
		}
	}
	// overtime skips odd steps by construction (applied on even step
	// numbers only): there must be at least one NoChange step.
	quiet := 0
	for _, step := range byTarget["overtime"].Steps {
		if step.NoChange {
			quiet++
		}
	}
	if quiet == 0 {
		t.Error("overtime: expected a no-change step")
	}

	// The head-relative default request is answered live and memoized whole:
	// a second identical request is one cache lookup, zero engine runs.
	if !tr.Live {
		t.Error("head-relative default timeline not marked live")
	}
	execBefore := srv.Stats().Executions
	resp2, body2 := postJSON(t, ts.URL+"/timeline", timelineRequest{})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second timeline status %d: %s", resp2.StatusCode, body2)
	}
	var tr2 timelineResponse
	if err := json.Unmarshal(body2, &tr2); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Executions; got != execBefore {
		t.Errorf("second timeline ran %d engine executions, want 0 (cache)", got-execBefore)
	}
	if !tr2.Live || !tr2.Cached {
		t.Errorf("repeat live timeline: live=%v cached=%v, want both", tr2.Live, tr2.Cached)
	}

	// POST /summarize shares the same cache keys: a step summarize of an
	// already-walked pair is a hit.
	execBefore = srv.Stats().Executions
	respS, bodyS := postJSON(t, ts.URL+"/summarize", summarizeRequest{
		From: versions[0].ID, To: versions[1].ID, Target: "salary",
	})
	if respS.StatusCode != http.StatusOK {
		t.Fatalf("summarize status %d: %s", respS.StatusCode, bodyS)
	}
	if got := srv.Stats().Executions; got != execBefore {
		t.Errorf("summarize after timeline re-ran the engine (%d executions)", got-execBefore)
	}

	// Explicit single-target request.
	respT, bodyT := postJSON(t, ts.URL+"/timeline", timelineRequest{Target: "bonus"})
	if respT.StatusCode != http.StatusOK {
		t.Fatalf("single-target status %d: %s", respT.StatusCode, bodyT)
	}
	var trT timelineResponse
	if err := json.Unmarshal(bodyT, &trT); err != nil {
		t.Fatal(err)
	}
	if len(trT.Targets) != 1 || trT.Targets[0].Target != "bonus" {
		t.Errorf("single-target response targets = %+v", trT.Targets)
	}
}

func TestTimelineValidation(t *testing.T) {
	_, ts := newTestServer(t)

	// Empty store: no head to default to.
	resp, _ := postJSON(t, ts.URL+"/timeline", timelineRequest{})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("empty store status = %d, want 404", resp.StatusCode)
	}

	// A misspelled tuning field is a bad body, not the live request.
	resp, body := postJSON(t, ts.URL+"/timeline", map[string]any{"alpah": 0.7})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "unknown field") {
		t.Errorf("unknown field status = %d: %s, want 400", resp.StatusCode, body)
	}

	// Unknown head id.
	resp, _ = postJSON(t, ts.URL+"/timeline", timelineRequest{Head: "nope"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown head status = %d, want 404", resp.StatusCode)
	}

	// A single root version has no steps to summarize.
	snaps, err := gen.Chain(gen.ChainConfig{N: 20, Steps: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	commitChain(t, ts.URL, snaps[:1])
	resp, body = postJSON(t, ts.URL+"/timeline", timelineRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("single-version status = %d: %s", resp.StatusCode, body)
	}
}

// TestTimelineTargetValidation pins the explicit-target checks: a typo'd or
// non-numeric target must read as an error, never as a fabricated
// all-no-change timeline.
func TestTimelineTargetValidation(t *testing.T) {
	_, ts := newTestServer(t)
	snaps, err := gen.Chain(gen.ChainConfig{N: 20, Steps: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	commitChain(t, ts.URL, snaps)

	resp, body := postJSON(t, ts.URL+"/timeline", timelineRequest{Target: "bonsu"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown target status = %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "unknown target attribute") {
		t.Errorf("unknown target message: %s", body)
	}
	resp, body = postJSON(t, ts.URL+"/timeline", timelineRequest{Target: "dept"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("categorical target status = %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "not numeric") {
		t.Errorf("categorical target message: %s", body)
	}
}

// TestTimelineAmortizesPairState asserts the cold-walk amortization: one
// POST /timeline over a fresh lineage builds each pair's atom cache / split
// index exactly once, no matter how many targets the pair has.
func TestTimelineAmortizesPairState(t *testing.T) {
	_, ts := newTestServer(t)
	snaps, err := gen.Chain(gen.ChainConfig{N: 30, Steps: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	commitChain(t, ts.URL, snaps)

	c0, i0 := core.AccelBuilds()
	resp, body := postJSON(t, ts.URL+"/timeline", timelineRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timeline status %d: %s", resp.StatusCode, body)
	}
	c1, i1 := core.AccelBuilds()
	steps := uint64(len(snaps) - 1)
	if c1-c0 != steps || i1-i0 != steps {
		t.Errorf("cold walk built %d caches / %d indexes, want one per pair (%d)", c1-c0, i1-i0, steps)
	}
	var tr timelineResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	engineCells := 0
	for _, tj := range tr.Targets {
		for _, s := range tj.Steps {
			if len(s.Ranked) > 0 {
				engineCells++
			}
		}
	}
	if engineCells <= int(steps) {
		t.Fatalf("amortization claim trivial: %d engine cells over %d pairs", engineCells, steps)
	}
}

func keysOf(m map[string]timelineTargetJSON) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestTimelineEmptyBody pins that a body-less POST /timeline is the
// all-defaults request (every field is optional), not a 400.
func TestTimelineEmptyBody(t *testing.T) {
	_, ts := newTestServer(t)
	snaps, err := gen.Chain(gen.ChainConfig{N: 20, Steps: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	commitChain(t, ts.URL, snaps)
	resp, err := http.Post(ts.URL+"/timeline", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("empty-body status = %d, want 200", resp.StatusCode)
	}
}

// TestTimelineWarmWalkIsParseFree pins the parse cost of the walk behind
// POST /timeline: a cold walk checks every version out, parsing each once,
// and any repeat walk (same request or a narrowed target) is served from the
// table cache with no further parsing. The counters arrive over GET /stats,
// whose store section is also pinned here.
func TestTimelineWarmWalkIsParseFree(t *testing.T) {
	_, ts := newTestServer(t)
	snaps, err := gen.Chain(gen.ChainConfig{N: 40, Steps: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	commitChain(t, ts.URL, snaps)

	storeStats := func() store.Stats {
		t.Helper()
		resp, body := get(t, ts.URL+"/stats")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stats status %d", resp.StatusCode)
		}
		var sr statsResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		return sr.Store
	}

	if resp, body := postJSON(t, ts.URL+"/timeline", timelineRequest{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold timeline status %d: %s", resp.StatusCode, body)
	}
	cold := storeStats()
	if cold.Parses != int64(len(snaps)) {
		t.Fatalf("cold walk parsed %d versions, want %d (each once)", cold.Parses, len(snaps))
	}
	if cold.Versions != len(snaps) || cold.DeltaPacks == 0 {
		t.Errorf("store stats = %+v, want %d versions with delta packs", cold, len(snaps))
	}

	if resp, body := postJSON(t, ts.URL+"/timeline", timelineRequest{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm timeline status %d: %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/timeline", timelineRequest{Target: "salary"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm single-target timeline status %d: %s", resp.StatusCode, body)
	}
	warm := storeStats()
	if warm.Parses != cold.Parses {
		t.Errorf("warm walks parsed %d more versions, want 0", warm.Parses-cold.Parses)
	}
	if warm.CacheHits <= cold.CacheHits {
		t.Errorf("warm walks recorded no cache hits (%d -> %d)", cold.CacheHits, warm.CacheHits)
	}
}
