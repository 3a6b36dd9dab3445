package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"

	"charles/internal/gen"
	"charles/internal/store"
)

func newHubTestServer(t *testing.T, opts store.HubOptions) (*store.Hub, *httptest.Server) {
	t.Helper()
	h, err := store.OpenHubWith("", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	ts := httptest.NewServer(NewHubServer(h, Config{CacheSize: 8}))
	t.Cleanup(ts.Close)
	return h, ts
}

// commitTo commits a CSV into one dataset over HTTP.
func commitTo(t *testing.T, base, tenant, ds, csv, parent, msg string) store.Version {
	t.Helper()
	resp, body := postJSON(t, base+"/datasets/"+tenant+"/"+ds+"/versions", commitRequest{
		CSV: csv, Key: []string{"name"}, Parent: parent, Message: msg,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("commit to %s/%s status %d: %s", tenant, ds, resp.StatusCode, body)
	}
	var v store.Version
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestHubServerDatasetIsolation commits the same snapshots into two
// tenants' datasets and checks the routes address separate shards — same
// content ids, independent logs, and summarize answers cached per shard.
func TestHubServerDatasetIsolation(t *testing.T) {
	_, ts := newHubTestServer(t, store.HubOptions{})
	d1, d2 := gen.Toy()
	csv1, csv2 := csvOf(t, d1), csvOf(t, d2)

	a1 := commitTo(t, ts.URL, "acme", "payroll", csv1, "", "2016")
	a2 := commitTo(t, ts.URL, "acme", "payroll", csv2, a1.ID, "2017")
	b1 := commitTo(t, ts.URL, "globex", "payroll", csv1, "", "2016")
	if a1.ID != b1.ID {
		t.Errorf("same content produced different ids across shards: %s vs %s", a1.ID, b1.ID)
	}

	// Independent logs: globex has 1 version, acme has 2.
	resp, body := get(t, ts.URL+"/datasets/globex/payroll/versions")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("globex log status %d", resp.StatusCode)
	}
	var log []store.Version
	if err := json.Unmarshal(body, &log); err != nil {
		t.Fatal(err)
	}
	if len(log) != 1 {
		t.Fatalf("globex log = %d entries, want 1", len(log))
	}

	// Version a2 exists in acme but must 404 in globex.
	resp, _ = get(t, ts.URL+"/datasets/acme/payroll/versions/"+a2.ID)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("acme version status = %d", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/datasets/globex/payroll/versions/"+a2.ID)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cross-shard version lookup status = %d, want 404", resp.StatusCode)
	}

	// Summarize on acme misses cold; the identical request on globex (same
	// version ids!) must NOT hit acme's cached answer — keys are
	// shard-prefixed. globex lacks v2, so it 404s rather than answering.
	resp, body = postJSON(t, ts.URL+"/datasets/acme/payroll/summarize",
		summarizeRequest{From: a1.ID, To: a2.ID, Target: "bonus"})
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
	resp, _ = postJSON(t, ts.URL+"/datasets/globex/payroll/summarize",
		summarizeRequest{From: a1.ID, To: a2.ID, Target: "bonus"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("summarize against shard missing the version: status %d, want 404", resp.StatusCode)
	}

	// Dataset listing covers both shards.
	resp, body = get(t, ts.URL+"/datasets")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("datasets status %d", resp.StatusCode)
	}
	var refs []store.DatasetRef
	if err := json.Unmarshal(body, &refs); err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 {
		t.Fatalf("datasets = %+v, want acme/payroll and globex/payroll", refs)
	}
}

// TestHubServerLegacyAlias pins the compatibility contract: the historical
// un-prefixed routes serve the default dataset, interchangeably with its
// /datasets/default/default spelling.
func TestHubServerLegacyAlias(t *testing.T) {
	_, ts := newHubTestServer(t, store.HubOptions{})
	d1, _ := gen.Toy()

	v1 := commit(t, ts.URL, csvOf(t, d1), "", "via legacy route")
	resp, body := get(t, ts.URL+"/datasets/default/default/versions")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default dataset log status %d", resp.StatusCode)
	}
	var log []store.Version
	if err := json.Unmarshal(body, &log); err != nil {
		t.Fatal(err)
	}
	if len(log) != 1 || log[0].ID != v1.ID {
		t.Fatalf("default dataset log = %+v, want the legacy commit", log)
	}
	// And back: the legacy read route sees hub-addressed commits.
	resp, _ = get(t, ts.URL+"/versions/"+v1.ID)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("legacy version route status %d", resp.StatusCode)
	}
}

// TestHubServerUnknownDataset pins the read/create split: reads on a
// never-committed dataset 404 without creating it; commits create it.
func TestHubServerUnknownDataset(t *testing.T) {
	h, ts := newHubTestServer(t, store.HubOptions{})
	for _, url := range []string{
		ts.URL + "/datasets/no/such/versions",
		ts.URL + "/datasets/no/such/diff?from=a&to=b",
	} {
		resp, _ := get(t, url)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s status = %d, want 404", url, resp.StatusCode)
		}
	}
	refs, err := h.Datasets()
	if err != nil || len(refs) != 0 {
		t.Fatalf("read traffic created datasets: %v, %v", refs, err)
	}
	// Invalid names are rejected, not treated as missing files.
	resp, _ := get(t, ts.URL+"/datasets/..%2F..%2Fetc/passwd/versions")
	if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
		t.Errorf("traversal-shaped dataset name: status %d, want 400/404", resp.StatusCode)
	}
}

// TestHubServerStatsRollup commits into two shards and checks GET /stats
// reports the hub section: per-shard store stats and commit counters, the
// shared budget accounting, and per-shard serve request counts.
func TestHubServerStatsRollup(t *testing.T) {
	_, ts := newHubTestServer(t, store.HubOptions{MemoryBudget: 8 << 20})
	d1, d2 := gen.Toy()
	v1 := commitTo(t, ts.URL, "acme", "payroll", csvOf(t, d1), "", "2016")
	commitTo(t, ts.URL, "acme", "payroll", csvOf(t, d2), v1.ID, "2017")
	commitTo(t, ts.URL, "globex", "sales", csvOf(t, d1), "", "2016")
	// A couple of reads against one shard.
	get(t, ts.URL+"/datasets/acme/payroll/versions")
	get(t, ts.URL+"/datasets/acme/payroll/versions/"+v1.ID)

	resp, body := get(t, ts.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Hub == nil {
		t.Fatal("hub section missing from stats")
	}
	if st.Hub.OpenShards != 2 || len(st.Hub.Shards) != 2 {
		t.Fatalf("hub stats shards = %d open / %d listed, want 2/2", st.Hub.OpenShards, len(st.Hub.Shards))
	}
	byKey := map[string]store.ShardStats{}
	for _, sh := range st.Hub.Shards {
		byKey[sh.Tenant+"/"+sh.Dataset] = sh
	}
	if got := byKey["acme/payroll"]; got.Commits != 2 || got.Store.Versions != 2 {
		t.Errorf("acme/payroll shard stats = %+v, want 2 commits / 2 versions", got)
	}
	if got := byKey["globex/sales"]; got.Commits != 1 {
		t.Errorf("globex/sales commits = %d, want 1", got.Commits)
	}
	if st.Hub.Budget.CapBytes != 8<<20 {
		t.Errorf("budget cap = %d, want %d", st.Hub.Budget.CapBytes, 8<<20)
	}
	if st.Hub.Budget.UsedBytes <= 0 {
		t.Error("budget reports zero usage after commits — caches not charged")
	}
	// Per-shard serving counters: acme/payroll took 2 commits + 2 reads.
	if got := st.Serving.Shards["acme/payroll"].Requests; got != 4 {
		t.Errorf("acme/payroll serve requests = %d, want 4", got)
	}
	if got := st.Serving.Shards["globex/sales"].Requests; got != 1 {
		t.Errorf("globex/sales serve requests = %d, want 1", got)
	}
}

// TestHubServerTimelinePerShard walks a timeline on a hub shard end to end
// (exercising the shard-prefixed step cache) and checks a second shard's
// timeline is computed independently.
func TestHubServerTimelinePerShard(t *testing.T) {
	_, ts := newHubTestServer(t, store.HubOptions{})
	chain, err := gen.Chain(gen.ChainConfig{N: 20, Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"acme", "globex"} {
		parent := ""
		for i, snap := range chain {
			resp, body := postJSON(t, ts.URL+"/datasets/"+tenant+"/events/versions", commitRequest{
				CSV: csvOf(t, snap), Key: snap.Key(), Parent: parent, Message: fmt.Sprintf("step %d", i),
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s commit %d status %d: %s", tenant, i, resp.StatusCode, body)
			}
			var v store.Version
			if err := json.Unmarshal(body, &v); err != nil {
				t.Fatal(err)
			}
			parent = v.ID
		}
	}
	for _, tenant := range []string{"acme", "globex"} {
		resp, body := postJSON(t, ts.URL+"/datasets/"+tenant+"/events/timeline",
			timelineRequest{Target: "salary"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s timeline status %d: %s", tenant, resp.StatusCode, body)
		}
		var tl timelineResponse
		if err := json.Unmarshal(body, &tl); err != nil {
			t.Fatal(err)
		}
		if tl.Steps != len(chain)-1 || len(tl.Targets) != 1 {
			t.Fatalf("%s timeline = %d steps / %d targets", tenant, tl.Steps, len(tl.Targets))
		}
	}
}

// TestSingleStoreServerIsHubOfOne pins that a server over one store (as
// charles-serve -dir runs) knows exactly one dataset: reads and commits
// addressed to any other name answer 404, GET /datasets lists only the
// default dataset, and no request creates anything next to the store.
func TestSingleStoreServerIsHubOfOne(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := httptest.NewServer(NewServerWith(st, Config{}))
	defer ts.Close()
	d1, _ := gen.Toy()
	csv := csvOf(t, d1)
	commit(t, ts.URL, csv, "", "2016")
	listing := func() []string {
		var names []string
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	before := listing()

	if resp, body := get(t, ts.URL+"/datasets/other/ds/versions"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET other dataset: status %d, want 404: %s", resp.StatusCode, body)
	}
	resp, body := postJSON(t, ts.URL+"/datasets/other/ds/versions", commitRequest{CSV: csv, Key: []string{"name"}})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST other dataset: status %d, want 404: %s", resp.StatusCode, body)
	}
	resp, body = get(t, ts.URL+"/datasets")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("datasets status %d", resp.StatusCode)
	}
	var refs []store.DatasetRef
	if err := json.Unmarshal(body, &refs); err != nil {
		t.Fatal(err)
	}
	if want := []store.DatasetRef{{Tenant: "default", Dataset: "default"}}; !reflect.DeepEqual(refs, want) {
		t.Errorf("datasets = %+v, want %+v", refs, want)
	}
	if after := listing(); !reflect.DeepEqual(after, before) {
		t.Errorf("store dir changed from %v to %v", before, after)
	}
	if n := len(st.Log()); n != 1 {
		t.Errorf("store holds %d versions, want 1", n)
	}
}
