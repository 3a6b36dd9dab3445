package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"charles/internal/gen"
	"charles/internal/metrics"
	"charles/internal/store"
)

// scrape fetches GET /metrics and lints the exposition text before
// returning it — every scrape in the suite doubles as a format check.
func scrape(t *testing.T, base string) []byte {
	t.Helper()
	resp, body := get(t, base+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	if err := metrics.Lint(body); err != nil {
		t.Fatalf("metrics output fails lint: %v\n%s", err, body)
	}
	return body
}

// metricValue asserts a sample exists and returns it.
func metricValue(t *testing.T, body []byte, name string, labels map[string]string) float64 {
	t.Helper()
	v, ok := metrics.Value(body, name, labels)
	if !ok {
		t.Fatalf("metric %s%v not found in:\n%s", name, labels, body)
	}
	return v
}

// TestMetricsExactUnderHammer drives a known request mix — concurrently,
// under -race — at a hub server and requires the /metrics counters to be
// exact: per-route × per-shard × status-class request counts (404 shard
// resolves included), histogram observation counts, and store/hub gauges.
func TestMetricsExactUnderHammer(t *testing.T) {
	_, ts := newHubTestServer(t, store.HubOptions{MemoryBudget: 8 << 20})
	d1, d2 := gen.Toy()
	v1 := commitTo(t, ts.URL, "acme", "payroll", csvOf(t, d1), "", "2016")
	commitTo(t, ts.URL, "acme", "payroll", csvOf(t, d2), v1.ID, "2017")

	const workers, perWorker = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// One good read and one against a dataset that does not
				// exist — the shard-resolve failure must be counted too.
				resp, _ := get(t, ts.URL+"/datasets/acme/payroll/versions")
				if resp.StatusCode != http.StatusOK {
					t.Errorf("good read status %d", resp.StatusCode)
				}
				resp, _ = get(t, ts.URL+"/datasets/nope/miss/versions")
				if resp.StatusCode != http.StatusNotFound {
					t.Errorf("missing dataset status %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()

	const reads = workers * perWorker // 100 per shard
	body := scrape(t, ts.URL)
	versionsRoute := "/datasets/{tenant}/{ds}/versions"
	if got := metricValue(t, body, "charles_http_requests_total",
		map[string]string{"route": versionsRoute, "shard": "acme/payroll", "class": "2xx"}); got != reads+2 {
		t.Errorf("acme/payroll 2xx = %v, want %d (%d reads + 2 commits)", got, reads+2, reads)
	}
	if got := metricValue(t, body, "charles_http_requests_total",
		map[string]string{"route": versionsRoute, "shard": "nope/miss", "class": "4xx"}); got != reads {
		t.Errorf("nope/miss 4xx = %v, want %d", got, reads)
	}
	// The latency histogram saw every request on the route: 100 good
	// reads + 100 failed resolves + 2 commits.
	if got := metricValue(t, body, "charles_http_request_duration_seconds_count",
		map[string]string{"route": versionsRoute}); got != 2*reads+2 {
		t.Errorf("duration count = %v, want %d", got, 2*reads+2)
	}
	// Store and hub gauges are collected at scrape time.
	if got := metricValue(t, body, "charles_store_versions",
		map[string]string{"shard": "acme/payroll"}); got != 2 {
		t.Errorf("store versions gauge = %v, want 2", got)
	}
	if got := metricValue(t, body, "charles_hub_shard_ops_total",
		map[string]string{"shard": "acme/payroll", "kind": "commit"}); got != 2 {
		t.Errorf("hub commit counter = %v, want 2", got)
	}
	if got := metricValue(t, body, "charles_hub_budget_used_bytes", nil); got <= 0 {
		t.Errorf("budget used = %v, want > 0 after commits", got)
	}
	metricValue(t, body, "charles_http_in_flight", nil)
	if got := metricValue(t, body, "charles_store_cache_events_total",
		map[string]string{"shard": "acme/payroll", "cache": "tables", "event": "hit"}); got < 0 {
		t.Errorf("cache events counter = %v", got)
	}
}

// TestShedAndResolveFailuresCountedPerShard is the undercounting
// regression test: with the limiter saturated, shed 429s — and a shed
// request addressed to a hub-spelled shard — show up in the per-shard
// counters with a status dimension, in ServingStats and /metrics alike.
func TestShedAndResolveFailuresCountedPerShard(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	commitLineage(t, st, 2)
	srv := NewServerWith(st, Config{MaxInFlight: 1})
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	srv.testDelay = func(*http.Request) {
		started <- struct{}{}
		<-gate
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/versions")
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-started // the one slot is held

	// Three sheds against the default shard (legacy route), one against a
	// hub-addressed shard: attribution works from the raw path alone.
	for i := 0; i < 3; i++ {
		if resp, _ := get(t, ts.URL+"/versions"); resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("saturated request %d status %d, want 429", i, resp.StatusCode)
		}
	}
	if resp, _ := get(t, ts.URL+"/datasets/acme/payroll/versions"); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("hub-addressed saturated request status %d, want 429", resp.StatusCode)
	}

	close(gate)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("parked request finished %d", code)
	}

	stats := srv.ServingStats()
	if stats.Shed != 4 {
		t.Errorf("global shed = %d, want 4", stats.Shed)
	}
	def := stats.Shards["default/default"]
	if def.Requests != 4 || def.Shed != 3 {
		t.Errorf("default shard = %+v, want 4 requests / 3 shed", def)
	}
	if def.Status["2xx"] != 1 || def.Status["4xx"] != 3 {
		t.Errorf("default shard status = %v, want 2xx:1 4xx:3", def.Status)
	}
	acme := stats.Shards["acme/payroll"]
	if acme.Requests != 1 || acme.Shed != 1 || acme.Status["4xx"] != 1 {
		t.Errorf("acme/payroll shard = %+v, want 1 request / 1 shed / 4xx:1", acme)
	}

	body := scrape(t, ts.URL)
	if got := metricValue(t, body, "charles_http_requests_total",
		map[string]string{"route": "(shed)", "shard": "default/default", "class": "4xx"}); got != 3 {
		t.Errorf("shed requests row = %v, want 3", got)
	}
	if got := metricValue(t, body, "charles_http_requests_total",
		map[string]string{"route": "(shed)", "shard": "acme/payroll", "class": "4xx"}); got != 1 {
		t.Errorf("hub-addressed shed row = %v, want 1", got)
	}
	if got := metricValue(t, body, "charles_http_shed_total", nil); got != 4 {
		t.Errorf("shed total = %v, want 4", got)
	}
}

// TestExemptRoutesTolerateTrailingSlash is the probe-spelling regression
// test: /healthz/, /stats/, and /metrics/ must bypass the limiter and
// answer exactly like their canonical spellings, even at capacity —
// before the fix the literal-path comparison let the slashed spelling
// fall through to the limited mux and be shed with 429.
func TestExemptRoutesTolerateTrailingSlash(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(st, Config{MaxInFlight: 1})
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	srv.testDelay = func(*http.Request) {
		started <- struct{}{}
		<-gate
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	parked := make(chan struct{})
	go func() {
		defer close(parked)
		resp, err := http.Get(ts.URL + "/versions")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started // server saturated

	for _, path := range []string{
		"/healthz", "/healthz/", "/stats", "/stats/", "/metrics", "/metrics/",
	} {
		resp, body := get(t, ts.URL+path)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s under saturation: status %d, want 200: %s", path, resp.StatusCode, body)
		}
	}
	// The slashed metrics spelling serves real exposition text.
	resp, body := get(t, ts.URL+"/metrics/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics/ status %d", resp.StatusCode)
	}
	if err := metrics.Lint(body); err != nil {
		t.Errorf("metrics/ output fails lint: %v", err)
	}
	close(gate)
	<-parked

	// No exempt probe was shed or counted against a shard.
	if got := srv.ServingStats().Shed; got != 0 {
		t.Errorf("shed = %d, want 0 (exempt probes were shed)", got)
	}
}

// TestRequestLogGolden pins the structured request log schema: one JSON
// line per request with method, route pattern, shard, status, bytes, and
// duration, matched against a golden file after the volatile fields
// (time, duration, bytes) are normalized.
func TestRequestLogGolden(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	srv := NewServerWith(st, Config{RequestLog: &logBuf})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	d1, _ := gen.Toy()
	commit(t, ts.URL, csvOf(t, d1), "", "2016") // POST /versions -> 200
	get(t, ts.URL+"/versions")                  // GET  /versions -> 200
	get(t, ts.URL+"/versions/nope")             // GET  {id} route -> 404
	get(t, ts.URL+"/healthz/")                  // exempt, normalized -> 200
	get(t, ts.URL+"/bogus")                     // unmatched -> 404
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/versions", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() // wrong method -> 405

	var got bytes.Buffer
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var e map[string]any
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("log line %q is not JSON: %v", line, err)
		}
		for _, k := range []string{"time", "method", "route", "path", "status", "bytes", "duration_ms"} {
			if _, ok := e[k]; !ok {
				t.Errorf("log line missing %q: %s", k, line)
			}
		}
		// Normalize the volatile fields; everything else must be exact.
		e["time"] = "TS"
		e["duration_ms"] = 0
		e["bytes"] = 0
		norm, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		got.Write(norm)
		got.WriteByte('\n')
	}

	goldenPath := filepath.Join("testdata", "requestlog.golden")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("request log drifted from golden:\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}

// TestMetricsStatsParity cross-checks the two observability surfaces:
// the per-shard totals /stats reports must equal what /metrics exposes.
func TestMetricsStatsParity(t *testing.T) {
	_, ts := newHubTestServer(t, store.HubOptions{})
	d1, _ := gen.Toy()
	commitTo(t, ts.URL, "acme", "payroll", csvOf(t, d1), "", "2016")
	get(t, ts.URL+"/datasets/acme/payroll/versions")
	get(t, ts.URL+"/datasets/acme/payroll/versions")

	resp, body := get(t, ts.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var stats struct {
		Serving ServingStats `json:"serving"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	sh := stats.Serving.Shards["acme/payroll"]
	if sh.Requests != 3 || sh.Status["2xx"] != 3 {
		t.Fatalf("serving stats = %+v, want 3 requests all 2xx", sh)
	}

	mbody := scrape(t, ts.URL)
	var metricTotal float64
	for _, route := range []string{"/datasets/{tenant}/{ds}/versions"} {
		if v, ok := metrics.Value(mbody, "charles_http_requests_total",
			map[string]string{"route": route, "shard": "acme/payroll", "class": "2xx"}); ok {
			metricTotal += v
		}
	}
	if int64(metricTotal) != sh.Requests {
		t.Errorf("metrics total %v != stats total %d", metricTotal, sh.Requests)
	}
}

// TestMetricsInvalidUTF8ShardLabel is the label-corruption regression
// test at the HTTP surface: a dataset path byte that is not UTF-8 must be
// counted in exactly one charles_http_requests_total sample, with U+FFFD in
// place of the byte and its own 4xx class, and GET /stats must report the
// same shard key. scrape's lint also checks the text is valid UTF-8.
func TestMetricsInvalidUTF8ShardLabel(t *testing.T) {
	_, ts := newTestServer(t)
	if resp, body := get(t, ts.URL+"/datasets/a%ffb/ds/versions"); resp.StatusCode/100 != 4 {
		t.Fatalf("status %d, want 4xx: %s", resp.StatusCode, body)
	}
	const route = "/datasets/{tenant}/{ds}/versions"
	var rows []string
	for _, line := range strings.Split(string(scrape(t, ts.URL)), "\n") {
		if strings.HasPrefix(line, `charles_http_requests_total{route="`+route+`"`) {
			rows = append(rows, line)
		}
	}
	want := `charles_http_requests_total{route="` + route + `",shard="a�b/ds",class="4xx"} 1`
	if len(rows) != 1 || rows[0] != want {
		t.Errorf("request samples = %q, want [%q]", rows, want)
	}
	resp, body := get(t, ts.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var stats struct {
		Serving ServingStats `json:"serving"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if got := stats.Serving.Shards["a�b/ds"]; got.Requests != 1 || got.Status["4xx"] != 1 || len(got.Status) != 1 {
		t.Errorf("stats shard a�b/ds = %+v, want 1 request, 4xx: 1 (all shards: %+v)", got, stats.Serving.Shards)
	}
}
