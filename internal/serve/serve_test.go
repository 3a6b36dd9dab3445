package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"charles/internal/csvio"
	"charles/internal/gen"
	"charles/internal/store"
	"charles/internal/table"
)

func csvOf(t *testing.T, tbl *table.Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := csvio.Write(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	// Big enough that a live timeline's seeded per-step entries plus its
	// whole-response memo all stay resident across the assertions.
	srv := NewServer(st, 64)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func commit(t *testing.T, base, csv, parent, msg string) store.Version {
	t.Helper()
	resp, body := postJSON(t, base+"/versions", commitRequest{
		CSV: csv, Key: []string{"name"}, Parent: parent, Message: msg,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("commit status %d: %s", resp.StatusCode, body)
	}
	var v store.Version
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestEndToEnd commits two snapshots over HTTP and exercises every
// endpoint: log, metadata, checkout, diff, summarize (miss then hit).
func TestEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t)
	d1, d2 := gen.Toy()

	v1 := commit(t, ts.URL, csvOf(t, d1), "", "2016")
	if v1.Seq != 1 || v1.Parent != "" || v1.Rows != 9 {
		t.Fatalf("v1 = %+v", v1)
	}
	v2 := commit(t, ts.URL, csvOf(t, d2), v1.ID, "2017 raises")
	if v2.Seq != 2 || v2.Parent != v1.ID {
		t.Fatalf("v2 = %+v", v2)
	}

	// Log.
	resp, body := get(t, ts.URL+"/versions")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("log status %d", resp.StatusCode)
	}
	var log []store.Version
	if err := json.Unmarshal(body, &log); err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 || log[0].ID != v1.ID || log[1].ID != v2.ID {
		t.Fatalf("log = %+v", log)
	}

	// Metadata + lineage.
	resp, body = get(t, ts.URL+"/versions/"+v2.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("version status %d", resp.StatusCode)
	}
	var meta struct {
		store.Version
		Lineage []string `json:"lineage"`
	}
	if err := json.Unmarshal(body, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.ID != v2.ID || len(meta.Lineage) != 2 || meta.Lineage[1] != v1.ID {
		t.Fatalf("metadata = %+v", meta)
	}

	// Checkout round-trips through the canonical CSV.
	resp, body = get(t, ts.URL+"/versions/"+v2.ID+"/csv")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/csv" {
		t.Fatalf("checkout status %d type %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	back, err := csvio.Read(bytes.NewReader(body), csvio.Options{Key: []string{"name"}})
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 9 {
		t.Fatalf("checkout rows = %d", back.NumRows())
	}

	// Diff.
	resp, body = get(t, fmt.Sprintf("%s/diff?from=%s&to=%s&target=bonus", ts.URL, v1.ID, v2.ID))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diff status %d: %s", resp.StatusCode, body)
	}
	var d diffResponse
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if d.UpdateDistance == 0 || len(d.Changes) == 0 {
		t.Fatalf("diff = %+v", d)
	}

	// Summarize: first request misses and runs the engine.
	sumReq := map[string]any{"from": v1.ID, "to": v2.ID, "target": "bonus"}
	resp, body = postJSON(t, ts.URL+"/summarize", sumReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("summarize status %d: %s", resp.StatusCode, body)
	}
	var sum summarizeResponse
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Cached {
		t.Error("first summarize reported cached")
	}
	if len(sum.Ranked) == 0 || len(sum.Ranked[0].Summary.CTs) != 3 {
		t.Fatalf("summarize ranked = %+v", sum.Ranked)
	}
	if sum.Ranked[0].Breakdown.Score < 0.85 {
		t.Errorf("top score = %v", sum.Ranked[0].Breakdown.Score)
	}
	if sum.OptionsFingerprint == "" {
		t.Error("missing options fingerprint")
	}

	// Second identical request is a cache hit with identical results.
	_, body2 := postJSON(t, ts.URL+"/summarize", sumReq)
	var sum2 summarizeResponse
	if err := json.Unmarshal(body2, &sum2); err != nil {
		t.Fatal(err)
	}
	if !sum2.Cached {
		t.Error("second identical summarize was not a cache hit")
	}
	sum.Cached, sum2.Cached = false, false
	a, _ := json.Marshal(sum)
	b, _ := json.Marshal(sum2)
	if !bytes.Equal(a, b) {
		t.Error("cached result differs from computed result")
	}

	// Different options → different fingerprint → separate cache slot.
	resp, body = postJSON(t, ts.URL+"/summarize",
		map[string]any{"from": v1.ID, "to": v2.ID, "target": "bonus", "topk": 1})
	var sum3 summarizeResponse
	if err := json.Unmarshal(body, &sum3); err != nil {
		t.Fatal(err)
	}
	if sum3.Cached {
		t.Error("different options reported cached")
	}
	if sum3.OptionsFingerprint == sum.OptionsFingerprint {
		t.Error("topk change did not move the options fingerprint")
	}

	st := srv.Stats()
	if st.Hits != 1 || st.Executions != 2 {
		t.Errorf("stats = %+v, want 1 hit / 2 executions", st)
	}

	// Stats endpoint mirrors the counters.
	resp, body = get(t, ts.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var viaHTTP Stats
	if err := json.Unmarshal(body, &viaHTTP); err != nil {
		t.Fatal(err)
	}
	if viaHTTP != st {
		t.Errorf("stats over HTTP = %+v, direct = %+v", viaHTTP, st)
	}

	// Healthz.
	resp, _ = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

// TestConcurrentSummarizeSingleflight fires identical concurrent requests
// at an empty cache and checks the engine executed exactly once.
func TestConcurrentSummarizeSingleflight(t *testing.T) {
	srv, ts := newTestServer(t)
	d1, d2 := gen.Toy()
	v1 := commit(t, ts.URL, csvOf(t, d1), "", "2016")
	v2 := commit(t, ts.URL, csvOf(t, d2), v1.ID, "2017")

	const n = 8
	var wg sync.WaitGroup
	results := make([]summarizeResponse, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, _ := json.Marshal(map[string]any{"from": v1.ID, "to": v2.ID, "target": "bonus"})
			resp, err := http.Post(ts.URL+"/summarize", "application/json", bytes.NewReader(data))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errs[i] = json.NewDecoder(resp.Body).Decode(&results[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	first, _ := json.Marshal(results[0].Ranked)
	for i := 1; i < n; i++ {
		got, _ := json.Marshal(results[i].Ranked)
		if !bytes.Equal(first, got) {
			t.Errorf("request %d got different ranking", i)
		}
	}
	st := srv.Stats()
	if st.Executions != 1 {
		t.Errorf("executions = %d, want 1 (singleflight)", st.Executions)
	}
	if st.Hits+st.Misses != n {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, n)
	}
}

// TestErrorMapping checks the HTTP status codes for store/engine failures.
func TestErrorMapping(t *testing.T) {
	_, ts := newTestServer(t)
	d1, d2 := gen.Toy()
	v1 := commit(t, ts.URL, csvOf(t, d1), "", "2016")
	v2 := commit(t, ts.URL, csvOf(t, d2), v1.ID, "2017")

	// Unknown version → 404 everywhere.
	for _, url := range []string{
		ts.URL + "/versions/nope",
		ts.URL + "/versions/nope/csv",
		ts.URL + "/diff?from=nope&to=" + v2.ID,
	} {
		if resp, _ := get(t, url); resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s status %d, want 404", url, resp.StatusCode)
		}
	}
	resp, _ := postJSON(t, ts.URL+"/summarize",
		map[string]any{"from": "nope", "to": v2.ID, "target": "bonus"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("summarize unknown id status %d, want 404", resp.StatusCode)
	}

	// Re-committing existing content under a different parent → 409.
	resp, body := postJSON(t, ts.URL+"/versions", commitRequest{
		CSV: csvOf(t, d2), Key: []string{"name"}, Message: "rebased",
	})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("lineage conflict status %d: %s", resp.StatusCode, body)
	}

	// Malformed body / missing fields → 400.
	r, err := http.Post(ts.URL+"/versions", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed commit status %d, want 400", r.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/summarize", map[string]any{"from": v1.ID})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("incomplete summarize status %d, want 400", resp.StatusCode)
	}
	// Non-numeric target → 400 from the engine's validation.
	resp, _ = postJSON(t, ts.URL+"/summarize",
		map[string]any{"from": v1.ID, "to": v2.ID, "target": "edu"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("categorical target status %d, want 400", resp.StatusCode)
	}
}

// TestWriteJSONUnencodableIs500 pins that an answer JSON cannot carry (a
// NaN) is a 500 with the JSON error envelope, not a 200 with an empty body.
func TestWriteJSONUnencodableIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"intercept": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q, want application/json", ct)
	}
	var env errorJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || !strings.Contains(env.Error, "NaN") {
		t.Errorf("body %q (%v), want the error envelope naming NaN", rec.Body.String(), err)
	}
}

// TestMethodNotAllowed drives a wrong-method request into every route and
// pins the uniform answer: 405, an Allow header listing what would work,
// and the JSON error envelope (not net/http's plain-text default).
func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	d1, _ := gen.Toy()
	v1 := commit(t, ts.URL, csvOf(t, d1), "", "root")

	cases := []struct {
		method, path, allow string
	}{
		{http.MethodDelete, "/versions", "GET, POST"},
		{http.MethodPut, "/versions", "GET, POST"},
		{http.MethodPost, "/versions/" + v1.ID, "GET"},
		{http.MethodDelete, "/versions/" + v1.ID + "/csv", "GET"},
		{http.MethodPost, "/versions/" + v1.ID + "/changes", "GET"},
		{http.MethodPost, "/diff", "GET"},
		{http.MethodGet, "/summarize", "POST"},
		{http.MethodGet, "/timeline", "POST"},
		{http.MethodPost, "/stats", "GET"},
		{http.MethodPost, "/healthz", "GET"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status = %d, want 405", tc.method, tc.path, resp.StatusCode)
			continue
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s %s: Allow = %q, want %q", tc.method, tc.path, got, tc.allow)
		}
		var e errorJSON
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s %s: body %q is not the JSON error envelope", tc.method, tc.path, body)
		}
	}
}

// TestChangesEndpoint pins GET /versions/{id}/changes: delta versions
// arrive as decoded ops with column-named cells, materialized versions say
// so, unknown ids 404.
func TestChangesEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	d1, d2 := gen.Toy()
	v1 := commit(t, ts.URL, csvOf(t, d1), "", "2016")
	v2 := commit(t, ts.URL, csvOf(t, d2), v1.ID, "2017")

	resp, body := get(t, ts.URL+"/versions/"+v2.ID+"/changes")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("changes status %d: %s", resp.StatusCode, body)
	}
	var cr changesResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Materialized || cr.Version != v2.ID || cr.Parent != v1.ID {
		t.Fatalf("changes header = %+v", cr)
	}
	if len(cr.Patched) == 0 || len(cr.Columns) == 0 {
		t.Fatalf("changes ops = %+v", cr)
	}
	for _, p := range cr.Patched {
		if p.Key == "" || len(p.Cells) == 0 {
			t.Fatalf("patch entry = %+v", p)
		}
		for col := range p.Cells {
			if col == "" {
				t.Fatalf("patch cell with empty column name: %+v", p)
			}
		}
	}

	resp, body = get(t, ts.URL+"/versions/"+v1.ID+"/changes")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("root changes status %d: %s", resp.StatusCode, body)
	}
	var root changesResponse
	if err := json.Unmarshal(body, &root); err != nil {
		t.Fatal(err)
	}
	if !root.Materialized || len(root.Patched)+len(root.Removed)+len(root.Inserted) != 0 {
		t.Fatalf("root changes = %+v", root)
	}

	if resp, _ := get(t, ts.URL+"/versions/nope/changes"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id status = %d, want 404", resp.StatusCode)
	}
}

// TestDiffReportsMembershipChanges pins the widened /diff semantics: a pair
// whose entity sets differ (previously a 400) now answers with the removed
// and inserted keys.
func TestDiffReportsMembershipChanges(t *testing.T) {
	_, ts := newTestServer(t)
	// Enough unchanged padding rows that the delta pack beats the full pack
	// (tiny tables legitimately fall back to full snapshots).
	var pad strings.Builder
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&pad, "pad%02d,%d.5\n", i, i)
	}
	csv1 := "name,bonus\nalice,100.5\nbob,200.5\ncarol,300.5\n" + pad.String()
	csv2 := "name,bonus\nalice,150.5\ncarol,300.5\ndave,400.5\n" + pad.String()
	v1 := commit(t, ts.URL, csv1, "", "v1")
	v2 := commit(t, ts.URL, csv2, v1.ID, "v2")

	resp, body := get(t, fmt.Sprintf("%s/diff?from=%s&to=%s&target=bonus", ts.URL, v1.ID, v2.ID))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diff status %d: %s", resp.StatusCode, body)
	}
	var d diffResponse
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Removed) != 1 || d.Removed[0] != "bob" {
		t.Errorf("removed = %v, want [bob]", d.Removed)
	}
	if len(d.Inserted) != 1 || d.Inserted[0] != "dave" {
		t.Errorf("inserted = %v, want [dave]", d.Inserted)
	}
	if d.UpdateDistance != 1 || len(d.Changes) != 1 || d.Changes[0].Key != "alice" {
		t.Errorf("changes = %+v (distance %d)", d.Changes, d.UpdateDistance)
	}

	// An unknown target is still a 400.
	if resp, _ := get(t, fmt.Sprintf("%s/diff?from=%s&to=%s&target=nope", ts.URL, v1.ID, v2.ID)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown target status = %d, want 400", resp.StatusCode)
	}
}
