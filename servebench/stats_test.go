package main

import (
	"math"
	"math/rand"
	"testing"
)

func TestPercentileRank(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		rank   int
		beyond int
	}{
		{1, 50, 1, 0},
		{10, 50, 5, 5},
		{10, 90, 9, 1},
		{100, 90, 90, 10},
		{110, 90, 99, 11},
		{210, 50, 105, 105},
		{5000, 90, 4500, 500},
	} {
		if got := percentileRank(tc.n, tc.p); got != tc.rank {
			t.Errorf("percentileRank(%d, %g) = %d, want %d", tc.n, tc.p, got, tc.rank)
		}
		if got := beyond(tc.n, tc.p); got != tc.beyond {
			t.Errorf("beyond(%d, %g) = %d, want %d", tc.n, tc.p, got, tc.beyond)
		}
	}
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := percentile(xs, 50); got != 5 {
		t.Errorf("p50 = %g, want 5", got)
	}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %g, want 9", got)
	}
	if xs[0] != 9 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(1, 4); got != 0.25 {
		t.Errorf("ratio(1, 4) = %g", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %g, want 0 for a layer never reached", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "a.child", Start: 15, End: 20, Parent: 1},
		{Name: "b", Start: 40, End: 60, Parent: 0},
		{Name: "b.child", Start: 41, End: 43, Parent: 3},
		{Name: "b.child", Start: 50, End: 59, Parent: 3},
	}
	want := []int64{100 - 30 - 20, 30 - 5, 5, 20 - 2 - 9, 2, 9}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestLayerMSAndShares(t *testing.T) {
	spans := []span{
		{Name: "store.commit", Start: 0, End: 4e6, Parent: -1, Op: -1},
		{Name: "store.commit", Start: 5e6, End: 7e6, Parent: -1, Op: -1},
		{Name: "op", Start: 10e6, End: 20e6, Parent: -1, Op: 0},
		{Name: "core.summarize", Start: 11e6, End: 19e6, Parent: 2, Op: 0},
		{Name: "op", Start: 20e6, End: 26e6, Parent: -1, Op: 1},
		{Name: "core.summarize", Start: 20e6, End: 24e6, Parent: 4, Op: 1},
		{Name: "core.summarize", Start: 24e6, End: 26e6, Parent: 4, Op: 1},
	}
	lt := aggregate(spans, 2)
	// Op 0 spends 8 ms in the engine, op 1 spends 4+2 ms: the
	// nearest-rank median of the two per-op sums is 6 ms.
	if got := lt.layerMS(named("core.summarize")); got != 6 {
		t.Errorf("core.summarize_ms = %g, want 6", got)
	}
	// No timed op commits, so the set-up's commits (4 and 2 ms) give the
	// value.
	if got := lt.layerMS(named("store.commit")); got != 2 {
		t.Errorf("store.commit_ms = %g, want 2", got)
	}
	if got := lt.layerMS(named("history.extend")); got != 0 {
		t.Errorf("unreached layer = %g, want 0", got)
	}
	sh := lt.shares(func(int) bool { return true })
	if got := sh["core.summarize"]; math.Abs(got-14.0/16) > 1e-12 {
		t.Errorf("core.summarize share = %g, want 14/16", got)
	}
}

func TestMetricSum(t *testing.T) {
	text := `# TYPE charles_timeline_maintenance_total counter
charles_timeline_maintenance_total{shard="default/default",mode="extend"} 41
charles_timeline_maintenance_total{shard="default/default",mode="rebuild"} 2
charles_timeline_maintenance_total{shard="a/b",mode="rebuild"} 1
`
	if got := metricSum(text, "charles_timeline_maintenance_total", `mode="rebuild"`); got != 3 {
		t.Errorf("rebuilds = %g, want 3", got)
	}
}

// A second seed must send the same op-class mix and the same cold share.
func TestOpMixIsSeedIndependent(t *testing.T) {
	mix := func(seed int64) map[string]int {
		m := map[string]int{}
		for _, op := range readOps(rand.New(rand.NewSource(seed)), 256, 4300) {
			m[op.class]++
			if op.cold {
				m["cold"]++
				m["cold/"+op.class]++
			}
		}
		ch := policyChain(seed, 30, 12, false)
		for _, op := range exploreOps(rand.New(rand.NewSource(seed)), ch, 200) {
			m["explore/"+op.target]++
		}
		return m
	}
	a, b := mix(1), mix(2)
	if len(a) != len(b) {
		t.Fatalf("class sets differ: %v vs %v", a, b)
	}
	for k, v := range a {
		if b[k] != v {
			t.Errorf("%s: %d ops with seed 1, %d with seed 2", k, v, b[k])
		}
	}
	if a["cold"]*10 != 4300*3 {
		t.Errorf("cold share %d/4300, want 30%%", a["cold"])
	}
}

func TestAlphasAreFresh(t *testing.T) {
	as := distinctAlphas(rand.New(rand.NewSource(3)), 500)
	seen := map[float64]bool{0.5: true}
	for _, a := range as {
		if seen[a] || a < 0.1 || a > 0.9 {
			t.Fatalf("alpha %v repeats the default or an earlier one, or is out of range", a)
		}
		seen[a] = true
	}
}
