// Package metrics is a small, dependency-free metrics layer that renders
// in the Prometheus text exposition format (version 0.0.4). It exists so
// the serve layer can expose a GET /metrics endpoint without pulling the
// Prometheus client library into the module.
//
// Three metric shapes cover the serving surface:
//
//   - CounterVec: monotonically increasing integer counters keyed by a
//     fixed set of label names (per-route × per-shard request counts).
//     Children are created on first use and bumped with atomics — no lock
//     on the hot path after the first request for a label combination.
//   - HistogramVec: fixed-bucket latency histograms (cumulative bucket
//     counts, _sum, _count), again atomically bumped.
//   - GaugeFunc / CounterFunc: scrape-time collectors for values some
//     other subsystem already tracks (in-flight requests, store and hub
//     counters, budget bytes). The callback runs on every WriteText.
//
// A Registry owns the families and renders them sorted by name, each with
// its # HELP and # TYPE comment. Lint validates rendered output — tests
// and the loadtest harness use it to keep the endpoint well-formed.
package metrics

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"
)

// validName is the Prometheus metric/label name charset.
var validName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// Sample is one collected value: label values in the family's label-name
// order, plus the value itself. Func-backed families return a slice of
// these per scrape.
type Sample struct {
	LabelValues []string
	Value       float64
}

// family is one named metric with a fixed type and label-name set. Exactly
// one of children (live counters/histograms) or collect (scrape-time
// callback) is used.
type family struct {
	name       string
	help       string
	kind       string // "counter", "gauge", "histogram"
	labelNames []string
	buckets    []float64 // histograms only; sorted, +Inf excluded
	children   sync.Map  // joined label values -> *Counter | *Histogram
	collect    func() []Sample
}

// Registry owns a set of metric families and renders them as Prometheus
// text. Registration is not concurrency-safe (do it at construction);
// bumping and rendering are.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

func (r *Registry) register(f *family) {
	if !validName.MatchString(f.name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", f.name))
	}
	for _, ln := range f.labelNames {
		if !validName.MatchString(ln) || ln == "le" {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", ln, f.name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric name %q", f.name))
	}
	r.families[f.name] = f
}

// Counter is a monotonically increasing integer counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; counters never go down).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("metrics: counter decrement")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// CounterVec is a family of counters keyed by label values.
type CounterVec struct {
	f *family
}

// NewCounterVec registers a counter family. The rendered name should end
// in _total by Prometheus convention.
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	f := &family{name: name, help: help, kind: "counter", labelNames: labelNames}
	r.register(f)
	return &CounterVec{f: f}
}

// With returns (creating on first use) the child counter for the given
// label values, which must match the family's label names in count.
func (v *CounterVec) With(labelValues ...string) *Counter {
	key := v.f.childKey(labelValues)
	if c, ok := v.f.children.Load(key); ok {
		return c.(*Counter)
	}
	c, _ := v.f.children.LoadOrStore(key, &Counter{})
	return c.(*Counter)
}

// Each calls fn once per child with its label values (in label-name order,
// invalid UTF-8 already replaced) and its current count, in no particular
// order. It is how a reader derives its own view from the counters without
// keeping a second copy of them.
func (v *CounterVec) Each(fn func(labelValues []string, n int64)) {
	v.f.children.Range(func(k, c any) bool {
		fn(v.f.labelValues(k.(string)), c.(*Counter).Value())
		return true
	})
}

// Histogram is a fixed-bucket histogram: counts per upper bound plus a
// running sum. Observations are atomically recorded.
type Histogram struct {
	buckets []float64 // upper bounds, sorted ascending
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// Observe records one value.
func (h *Histogram) Observe(val float64) {
	// Buckets are few (≈14); linear scan beats binary search at this size.
	for i, ub := range h.buckets {
		if val <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + val)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// HistogramVec is a family of fixed-bucket histograms keyed by label
// values.
type HistogramVec struct {
	f *family
}

// DefLatencyBuckets are upper bounds (in seconds) that resolve
// sub-millisecond cache hits and multi-second engine walks alike.
var DefLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// NewHistogramVec registers a histogram family with the given upper
// bounds (nil uses DefLatencyBuckets). Bounds must be sorted ascending;
// the +Inf bucket is implicit.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefLatencyBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q buckets not ascending", name))
		}
	}
	f := &family{name: name, help: help, kind: "histogram", labelNames: labelNames, buckets: buckets}
	r.register(f)
	return &HistogramVec{f: f}
}

// With returns (creating on first use) the child histogram for the given
// label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	key := v.f.childKey(labelValues)
	if h, ok := v.f.children.Load(key); ok {
		return h.(*Histogram)
	}
	h, _ := v.f.children.LoadOrStore(key, &Histogram{
		buckets: v.f.buckets,
		counts:  make([]atomic.Int64, len(v.f.buckets)),
	})
	return h.(*Histogram)
}

// NewGaugeFunc registers a gauge family whose samples are collected by
// callback at render time. labelNames may be nil for a single unlabeled
// sample.
func (r *Registry) NewGaugeFunc(name, help string, labelNames []string, collect func() []Sample) {
	r.register(&family{name: name, help: help, kind: "gauge", labelNames: labelNames, collect: collect})
}

// NewCounterFunc is NewGaugeFunc with counter semantics: use it when
// another subsystem already owns the monotone count (e.g. an atomic the
// hot path bumps directly).
func (r *Registry) NewCounterFunc(name, help string, labelNames []string, collect func() []Sample) {
	r.register(&family{name: name, help: help, kind: "counter", labelNames: labelNames, collect: collect})
}

// childKeySep joins label values in child keys. Label values are free
// text, so the separator is a byte that cannot appear in valid UTF-8 —
// and childKey makes every value valid UTF-8 before joining, replacing
// invalid bytes with U+FFFD, so the exposition text is valid UTF-8 too and
// a raw 0xff in a value can never split it into two labels.
const childKeySep = "\xff"

func (f *family) childKey(labelValues []string) string {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("metrics: %q wants %d label values, got %d", f.name, len(f.labelNames), len(labelValues)))
	}
	for i, lv := range labelValues {
		if !utf8.ValidString(lv) {
			labelValues = append([]string(nil), labelValues...) // the caller's slice stays as it was
			labelValues[i] = strings.ToValidUTF8(lv, "\uFFFD")
		}
	}
	return strings.Join(labelValues, childKeySep)
}

// labelValues splits a child key back into its label values.
func (f *family) labelValues(key string) []string {
	if len(f.labelNames) == 0 {
		return nil
	}
	return strings.Split(key, childKeySep)
}

// WriteText renders every family in the Prometheus text exposition
// format, sorted by metric name, each preceded by # HELP and # TYPE.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		f.renderInto(&b)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) renderInto(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	if f.collect != nil {
		for _, s := range f.collect() {
			if len(s.LabelValues) != len(f.labelNames) {
				// A collector bug must surface in scrape output, not panic
				// the handler.
				fmt.Fprintf(b, "# collector for %s returned %d label values, want %d\n",
					f.name, len(s.LabelValues), len(f.labelNames))
				continue
			}
			writeSample(b, f.name, f.labelNames, s.LabelValues, "", 0, s.Value)
		}
		return
	}
	// Live children, sorted by key for stable output.
	type kv struct {
		key string
		m   any
	}
	var kids []kv
	f.children.Range(func(k, v any) bool {
		kids = append(kids, kv{k.(string), v})
		return true
	})
	sort.Slice(kids, func(i, j int) bool { return kids[i].key < kids[j].key })
	for _, kid := range kids {
		lvs := f.labelValues(kid.key)
		switch m := kid.m.(type) {
		case *Counter:
			writeSample(b, f.name, f.labelNames, lvs, "", 0, float64(m.Value()))
		case *Histogram:
			// Cumulative buckets. Reading the atomics while writers bump
			// them can tear across buckets; each individual count is exact
			// and the skew is one in-flight observation — fine for a scrape.
			var cum int64
			for i, ub := range m.buckets {
				cum += m.counts[i].Load()
				writeSample(b, f.name+"_bucket", f.labelNames, lvs, "le", ub, float64(cum))
			}
			count := m.count.Load()
			writeSample(b, f.name+"_bucket", f.labelNames, lvs, "le", math.Inf(1), float64(count))
			sum := math.Float64frombits(m.sumBits.Load())
			writeSample(b, f.name+"_sum", f.labelNames, lvs, "", 0, sum)
			writeSample(b, f.name+"_count", f.labelNames, lvs, "", 0, float64(count))
		}
	}
}

// writeSample renders one `name{labels} value` line. leName, when
// non-empty, appends the histogram bucket bound label.
func writeSample(b *strings.Builder, name string, labelNames, labelValues []string, leName string, le, val float64) {
	b.WriteString(name)
	if len(labelNames) > 0 || leName != "" {
		b.WriteByte('{')
		for i, ln := range labelNames {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(ln)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(labelValues[i]))
			b.WriteByte('"')
		}
		if leName != "" {
			if len(labelNames) > 0 {
				b.WriteByte(',')
			}
			b.WriteString(leName)
			b.WriteString(`="`)
			b.WriteString(formatFloat(le))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(val))
	b.WriteByte('\n')
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
