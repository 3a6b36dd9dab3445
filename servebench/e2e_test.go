package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// tinySizes keep an end-to-end run of each workload to a few seconds.
var tinySizes = map[string]sizes{
	"explore": {rows: 60, versions: 4, ops: 12, setups: 2, sample: 3},
	"live":    {rows: 40, versions: 3, ops: 5, setups: 2},
	"read":    {rows: 40, versions: 40, churn: 2, ops: 30, setups: 2},
}

// contract is the metric lists BENCHMARK.json promises.
type contract struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func runTiny(t *testing.T, name string, traced bool, wrap func(workload)) (resultJSON, string) {
	t.Helper()
	var out bytes.Buffer
	cfg := runConfig{name: name, seed: 7, sz: tinySizes[name], traced: traced, root: t.TempDir(), wrap: wrap}
	res, err := execute(context.Background(), cfg, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out.String())
	}
	return res, out.String()
}

// requireMetrics checks the run printed exactly the contract's metrics,
// each with its unit.
func requireMetrics(t *testing.T, res resultJSON, want []struct{ Name, Unit string }, positive bool) {
	t.Helper()
	var names []string
	for _, m := range want {
		names = append(names, m.Name)
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s has unit %s, want %s", m.Name, got.Unit, m.Unit)
		case positive && !(got.Value > 0):
			t.Errorf("metric %s = %v, want > 0", m.Name, got.Value)
		}
	}
	if len(res.Metrics) != len(want) {
		var extra []string
		for k := range res.Metrics {
			extra = append(extra, k)
		}
		sort.Strings(extra)
		t.Errorf("printed metrics %v, contract lists %v", extra, names)
	}
}

func TestTinyRuns(t *testing.T) {
	c := loadContract(t)
	for _, name := range []string{"explore", "live", "read"} {
		t.Run(name, func(t *testing.T) {
			res, out := runTiny(t, name, false, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("clean run: correct %v, %d of %d failed\n%s", res.Correct, res.Failed, res.Attempted, out)
			}
			requireMetrics(t, res, c.EndToEnd, true)
			for _, want := range []string{"run: workload=" + name, "machine: nproc=", "store_fs=", "class "} {
				if !strings.Contains(out, want) {
					t.Errorf("output lacks %q:\n%s", want, out)
				}
			}
		})
	}
}

func TestTinyTracedRuns(t *testing.T) {
	c := loadContract(t)
	for _, name := range []string{"explore", "live", "read"} {
		t.Run(name, func(t *testing.T) {
			res, out := runTiny(t, name, true, nil)
			if !res.Correct {
				t.Fatalf("traced run failed:\n%s", out)
			}
			requireMetrics(t, res, c.PerLayer, false)
			for _, want := range []string{"trace: ", "dominant layer: predicted", "trace.overhead_pct"} {
				if !strings.Contains(out, want) {
					t.Errorf("output lacks %q:\n%s", want, out)
				}
			}
			if name == "explore" && res.Metrics["serve.result_hit_ratio"].Value != 0 {
				t.Errorf("explore hit the result cache: %v", res.Metrics["serve.result_hit_ratio"])
			}
			if name == "live" && res.Metrics["history.rebuilds"].Value != 0 {
				t.Errorf("live rebuilt the timeline: %v", res.Metrics["history.rebuilds"])
			}
		})
	}
}

// Each workload's checks must reject a deliberately wrong answer: the run
// then reports the op as failed, is not correct, and the command exits 1.
func TestWrongAnswersAreRejected(t *testing.T) {
	cases := map[string]func(workload){
		"explore/cached": func(w workload) {
			w.(*exploreWL).corrupt = func(i int, ans *summarizeJSON) {
				if i == 2 {
					ans.Cached = true
				}
			}
		},
		"explore/score": func(w workload) {
			w.(*exploreWL).corrupt = func(i int, ans *summarizeJSON) {
				ans.Ranked[0].Breakdown.Score += 1e-3
			}
		},
		"live/head": func(w workload) {
			w.(*liveWL).corrupt = func(i int, tl *timelineJSON) {
				if i == 1 {
					tl.Head = "000000000000"
				}
			}
		},
		"read/csv": func(w workload) {
			rw := w.(*readWL)
			rw.corrupt = func(i int, body []byte) []byte {
				if i >= 0 && rw.ops[i].class == opCSV {
					body = bytes.Replace(body, []byte("ENG"), []byte("ENH"), 1)
				}
				return body
			}
		},
		"read/diff": func(w workload) {
			rw := w.(*readWL)
			rw.corrupt = func(i int, body []byte) []byte {
				if i >= 0 && rw.ops[i].class == opDiffAdj {
					body = bytes.Replace(body, []byte(`"updateDistance": `), []byte(`"updateDistance": 1`), 1)
				}
				return body
			}
		},
	}
	for name, wrap := range cases {
		t.Run(name, func(t *testing.T) {
			res, out := runTiny(t, strings.Split(name, "/")[0], false, wrap)
			if res.Correct {
				t.Fatalf("a wrong answer was accepted:\n%s", out)
			}
			if !strings.Contains(out, "failed:") {
				t.Errorf("the failure was not printed:\n%s", out)
			}
		})
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "read", "--trace", "2"},
		{"--workload", "read", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := cli(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want 2 and no result", args, code, out.String())
		}
	}
}
