package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/values.golden from the current engine")

// TestExperimentValues pins every value every experiment reports in quick
// mode, bit for bit, against testdata/values.golden. The threshold tests
// above check the shape of each artifact; this one makes any change to an
// engine answer visible, however small. Timing values (ms_*) vary from run
// to run and are left out. Regenerate with `go test ./internal/experiments
// -run TestExperimentValues -args -update` only for a change that is meant
// to move answers.
func TestExperimentValues(t *testing.T) {
	var b strings.Builder
	for _, r := range All() {
		rep, err := r.Run(Config{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		keys := make([]string, 0, len(rep.Values))
		for k := range rep.Values {
			if !strings.HasPrefix(k, "ms_") {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			b.WriteString(r.ID + " " + k + " " + strconv.FormatFloat(rep.Values[k], 'g', -1, 64) + "\n")
		}
	}
	path := filepath.Join("testdata", "values.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d: got %q, want %q", i+1, g, w)
			}
		}
	}
}
