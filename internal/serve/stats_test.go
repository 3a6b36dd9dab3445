package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"charles/internal/gen"
	"charles/internal/store"
)

// statsSequence sends the fixed request mix behind the /stats golden: two
// legacy-route commits, a commit and a read addressed to a second dataset
// (404 on a single-store server), reads that hit, miss and 404, a
// summarize miss then hit, hub-wide and exempt routes, and a wrong method.
func statsSequence(t *testing.T, base string) {
	t.Helper()
	d1, d2 := gen.Toy()
	csv1, csv2 := csvOf(t, d1), csvOf(t, d2)
	v1 := commit(t, base, csv1, "", "2016")
	v2 := commit(t, base, csv2, v1.ID, "2017")
	postJSON(t, base+"/datasets/acme/payroll/versions", commitRequest{CSV: csv1, Key: []string{"name"}})
	get(t, base+"/versions")
	get(t, base+"/versions/"+v2.ID)
	get(t, base+"/versions/nope")
	get(t, base+"/datasets/default/default/diff?from="+v1.ID+"&to="+v2.ID)
	for i := 0; i < 2; i++ {
		postJSON(t, base+"/summarize", summarizeRequest{From: v1.ID, To: v2.ID, Target: "bonus"})
	}
	get(t, base+"/datasets/acme/payroll/versions")
	get(t, base+"/datasets/nope/miss/versions")
	get(t, base+"/datasets")
	get(t, base+"/healthz")
	req, err := http.NewRequest(http.MethodDelete, base+"/versions", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// writeStatsLeaves renders every leaf of a decoded JSON document as one
// "path = value" line, object keys sorted. Byte sizes and the compression
// ratio are normalized to N: they follow the pack encoding, not the
// request sequence.
func writeStatsLeaves(b *strings.Builder, path string, v any) {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			p := k
			if path != "" {
				p = path + "." + k
			}
			writeStatsLeaves(b, p, x[k])
		}
	case []any:
		for i, e := range x {
			writeStatsLeaves(b, fmt.Sprintf("%s[%d]", path, i), e)
		}
	default:
		leaf := path[strings.LastIndex(path, ".")+1:]
		if strings.Contains(strings.ToLower(leaf), "bytes") || leaf == "compression" {
			v = "N"
		}
		fmt.Fprintf(b, "%s = %v\n", path, v)
	}
}

// TestStatsGolden pins the GET /stats schema: the same request sequence
// goes to a single-store server and to a hub server, and every key path of
// each answer, with its value, must match testdata/stats.golden. The
// serving section's per-shard request, shed and status counts are exact.
func TestStatsGolden(t *testing.T) {
	var got strings.Builder
	for _, mode := range []string{"single-store", "hub"} {
		var srv *Server
		if mode == "hub" {
			h, err := store.OpenHubWith("", store.HubOptions{MemoryBudget: 8 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			srv = NewHubServer(h, Config{CacheSize: 8})
		} else {
			st, err := store.Open("")
			if err != nil {
				t.Fatal(err)
			}
			srv = NewServerWith(st, Config{CacheSize: 8})
		}
		ts := httptest.NewServer(srv)
		statsSequence(t, ts.URL)
		resp, body := get(t, ts.URL+"/stats")
		ts.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s stats status %d: %s", mode, resp.StatusCode, body)
		}
		var doc any
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "# %s\n", mode)
		writeStatsLeaves(&got, "", doc)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "stats.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("GET /stats drifted from golden:\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}
