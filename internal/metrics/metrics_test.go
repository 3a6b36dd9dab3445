package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestCounterVecRendering pins the exposition format for counters: HELP and
// TYPE comments, sorted label sets, integer-rendered values, and label
// escaping.
func TestCounterVecRendering(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("test_requests_total", "requests by route", "route", "class")
	v.With("/versions", "2xx").Add(3)
	v.With("/diff", "4xx").Inc()
	v.With(`quo"te\back`+"\n", "5xx").Inc()

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP test_requests_total requests by route\n",
		"# TYPE test_requests_total counter\n",
		`test_requests_total{route="/versions",class="2xx"} 3`,
		`test_requests_total{route="/diff",class="4xx"} 1`,
		`test_requests_total{route="quo\"te\\back\n",class="5xx"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if err := Lint([]byte(out)); err != nil {
		t.Errorf("rendered output fails lint: %v", err)
	}
	got, ok := Value([]byte(out), "test_requests_total", map[string]string{"route": "/versions", "class": "2xx"})
	if !ok || got != 3 {
		t.Errorf("Value = (%v, %v), want (3, true)", got, ok)
	}
	// The escaped label round-trips through the parser.
	got, ok = Value([]byte(out), "test_requests_total", map[string]string{"route": `quo"te\back` + "\n", "class": "5xx"})
	if !ok || got != 1 {
		t.Errorf("escaped label did not round-trip: (%v, %v)", got, ok)
	}
}

// TestHistogramRendering pins cumulative buckets, the implicit +Inf bucket,
// and _sum/_count.
func TestHistogramRendering(t *testing.T) {
	r := NewRegistry()
	v := r.NewHistogramVec("test_latency_seconds", "latency", []float64{0.1, 1, 10}, "route")
	h := v.With("/x")
	for _, obs := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(obs)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`test_latency_seconds_bucket{route="/x",le="0.1"} 1`,
		`test_latency_seconds_bucket{route="/x",le="1"} 3`,
		`test_latency_seconds_bucket{route="/x",le="10"} 4`,
		`test_latency_seconds_bucket{route="/x",le="+Inf"} 5`,
		`test_latency_seconds_sum{route="/x"} 56.05`,
		`test_latency_seconds_count{route="/x"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if err := Lint([]byte(out)); err != nil {
		t.Errorf("rendered output fails lint: %v", err)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
}

// TestFuncFamilies pins scrape-time collectors: the callback runs per
// WriteText and its samples render under the declared type.
func TestFuncFamilies(t *testing.T) {
	r := NewRegistry()
	calls := 0
	r.NewGaugeFunc("test_in_flight", "in flight", nil, func() []Sample {
		calls++
		return []Sample{{Value: float64(calls)}}
	})
	r.NewCounterFunc("test_shed_total", "shed", []string{"shard"}, func() []Sample {
		return []Sample{{LabelValues: []string{"a/b"}, Value: 7}}
	})
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "test_in_flight 1\n") || !strings.Contains(out, "test_in_flight 2\n") {
		t.Errorf("gauge func did not run per scrape:\n%s", out)
	}
	if !strings.Contains(out, `test_shed_total{shard="a/b"} 7`) {
		t.Errorf("counter func sample missing:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE test_shed_total counter") {
		t.Errorf("counter func TYPE missing:\n%s", out)
	}
}

// TestConcurrentObservations hammers one counter and one histogram from
// many goroutines (the -race half of the contract) and checks totals are
// exact — atomics may not drop updates.
func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("test_total", "t", "k")
	hv := r.NewHistogramVec("test_lat", "t", []float64{1, 2}, "k")
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				cv.With("x").Inc()
				hv.With("x").Observe(float64(i%3) + 0.5)
				// Render concurrently with the writers too.
				if i%251 == 0 {
					var b strings.Builder
					_ = r.WriteText(&b)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := cv.With("x").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := hv.With("x").Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if err := Lint([]byte(b.String())); err != nil {
		t.Errorf("post-hammer output fails lint: %v", err)
	}
}

// TestLintRejectsMalformed drives known-bad exposition text through Lint.
func TestLintRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"no TYPE", "x_total 1\n"},
		{"no HELP", "# TYPE x_total counter\nx_total 1\n"},
		{"bad value", "# HELP x x\n# TYPE x counter\nx nope\n"},
		{"bad name", "# HELP x x\n# TYPE x counter\n1x 2\n"},
		{"duplicate sample", "# HELP x x\n# TYPE x counter\nx{a=\"1\"} 2\nx{a=\"1\"} 3\n"},
		{"unterminated label", "# HELP x x\n# TYPE x counter\nx{a=\"1} 2\n"},
		{"unknown type", "# HELP x x\n# TYPE x banana\nx 1\n"},
		{
			"non-monotone histogram",
			"# HELP h h\n# TYPE h histogram\n" +
				"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		},
		{
			"missing +Inf bucket",
			"# HELP h h\n# TYPE h histogram\n" +
				"h_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n",
		},
		{
			"count mismatch",
			"# HELP h h\n# TYPE h histogram\n" +
				"h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 9\n",
		},
	}
	for _, tc := range cases {
		if err := Lint([]byte(tc.text)); err == nil {
			t.Errorf("%s: lint accepted malformed text", tc.name)
		}
	}
	// And a well-formed document passes.
	good := "# HELP h h\n# TYPE h histogram\n" +
		"h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 6\nh_sum 1.5\nh_count 6\n" +
		"# HELP g g\n# TYPE g gauge\ng 0\n"
	if err := Lint([]byte(good)); err != nil {
		t.Errorf("lint rejected well-formed text: %v", err)
	}
}

// TestRegistrationPanics pins constructor validation: bad names, reserved
// labels, duplicate registration, unsorted buckets.
func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.NewCounterVec("ok_total", "ok")
	mustPanic("bad metric name", func() { r.NewCounterVec("1bad", "x") })
	mustPanic("reserved le label", func() { r.NewHistogramVec("h", "x", nil, "le") })
	mustPanic("duplicate name", func() { r.NewCounterVec("ok_total", "again") })
	mustPanic("unsorted buckets", func() { r.NewHistogramVec("h2", "x", []float64{2, 1}) })
	mustPanic("label arity", func() { r.NewCounterVec("v_total", "x", "a").With("1", "2") })
	mustPanic("counter decrement", func() { r.NewCounterVec("w_total", "x").With().Add(-1) })
}

// TestValueUnlabeled covers the nil-labels lookup path and Inf parsing.
func TestValueUnlabeled(t *testing.T) {
	text := "# HELP g g\n# TYPE g gauge\ng 4.25\n"
	got, ok := Value([]byte(text), "g", nil)
	if !ok || got != 4.25 {
		t.Errorf("Value = (%v, %v), want (4.25, true)", got, ok)
	}
	if _, ok := Value([]byte(text), "missing", nil); ok {
		t.Error("Value found a metric that is not there")
	}
	if v, err := parseValue("+Inf"); err != nil || !math.IsInf(v, 1) {
		t.Errorf("parseValue(+Inf) = %v, %v", v, err)
	}
}

// TestInvalidUTF8LabelValues is the label-corruption regression test: a
// label value that is not valid UTF-8 renders with U+FFFD in place of the
// bad bytes, in exactly one sample with the right label split — a raw 0xff
// used to be taken for the child-key separator and shift every later
// label by one.
func TestInvalidUTF8LabelValues(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("test_total", "t", "shard", "class")
	v.With("a\xffb/ds", "4xx").Inc()
	v.With("a�b/ds", "4xx").Inc() // the same child once sanitized
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if err := Lint([]byte(out)); err != nil {
		t.Fatalf("rendered output fails lint: %v\n%s", err, out)
	}
	if want := "test_total{shard=\"a�b/ds\",class=\"4xx\"} 2\n"; !strings.HasSuffix(out, want) || strings.Count(out, "test_total{") != 1 {
		t.Errorf("output = %q, want one sample %q", out, want)
	}
	var seen [][]string
	v.Each(func(lv []string, n int64) {
		if n != 2 {
			t.Errorf("Each count = %d, want 2", n)
		}
		seen = append(seen, lv)
	})
	if len(seen) != 1 || seen[0][0] != "a�b/ds" || seen[0][1] != "4xx" {
		t.Errorf("Each label values = %q", seen)
	}
}

// TestLintRejectsInvalidUTF8 pins that exposition text which is not UTF-8
// fails the lint, wherever the bad byte sits.
func TestLintRejectsInvalidUTF8(t *testing.T) {
	for _, text := range []string{
		"# HELP x_total x\n# TYPE x_total counter\nx_total{a=\"\xff\"} 1\n",
		"# HELP x_total x\xfe\n# TYPE x_total counter\nx_total 1\n",
	} {
		if err := Lint([]byte(text)); err == nil {
			t.Errorf("lint accepted non-UTF-8 text %q", text)
		}
	}
}

// TestCounterVecEach pins the child enumeration: every child once, with its
// label values and count; an empty value of a one-label family is one
// empty label, not none.
func TestCounterVecEach(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("test_total", "t", "k")
	v.With("a").Add(3)
	v.With("").Inc()
	got := map[string]int64{}
	v.Each(func(lv []string, n int64) {
		if len(lv) != 1 {
			t.Fatalf("Each label values = %q, want one", lv)
		}
		got[lv[0]] = n
	})
	if len(got) != 2 || got["a"] != 3 || got[""] != 1 {
		t.Errorf("Each = %v, want a:3 and \"\":1", got)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "test_total{k=\"\"} 1\n") {
		t.Errorf("empty label value not rendered:\n%s", b.String())
	}
	unlabeled := r.NewCounterVec("test_plain_total", "t")
	unlabeled.With().Inc()
	unlabeled.Each(func(lv []string, n int64) {
		if len(lv) != 0 || n != 1 {
			t.Errorf("unlabeled Each = %q, %d", lv, n)
		}
	})
}
