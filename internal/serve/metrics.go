package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"charles/internal/metrics"
	"charles/internal/store"
)

// Observability: every request — served, shed, or failed at shard
// resolution — flows through one statusRecorder and is accounted exactly
// once in Server.finish: one count in the Prometheus registry behind
// GET /metrics (which ServingStats and GET /stats read back), and a line in
// the structured request log. The scrape-time half (store, hub, budget,
// cache gauges) is collected live from Stats() snapshots, so /metrics
// needs no background goroutine and is always current.

// routeShed is the route label for requests rejected by the concurrency
// limiter: they were shed before the mux could match a pattern.
const routeShed = "(shed)"

// routeUnmatched is the route label for requests no registered pattern
// matched (the mux's own 404s).
const routeUnmatched = "(unmatched)"

// noShardLabel is the shard label for requests that do not address a
// dataset (hub-wide routes, liveness, unmatched paths).
const noShardLabel = "-"

// statusRecorder wraps a ResponseWriter to capture what the handler
// actually answered: status code, body bytes, and — set by the matched
// handler wrappers — the route pattern and shard key the request resolved
// to. It is the one place request accounting reads from.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
	route  string // mux pattern, e.g. "/datasets/{tenant}/{ds}/versions"
	shard  string // "tenant/dataset", "" when the route is not shard-scoped
	shed   bool
}

func (rec *statusRecorder) WriteHeader(code int) {
	if rec.status == 0 {
		rec.status = code
	}
	rec.ResponseWriter.WriteHeader(code)
}

func (rec *statusRecorder) Write(p []byte) (int, error) {
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	n, err := rec.ResponseWriter.Write(p)
	rec.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so streaming responses keep
// working through the recorder.
func (rec *statusRecorder) Flush() {
	if f, ok := rec.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap supports http.ResponseController passthrough.
func (rec *statusRecorder) Unwrap() http.ResponseWriter { return rec.ResponseWriter }

// setRoute / setShard tag the recorder from inside mux handlers (which
// only see the ResponseWriter interface).
func setRoute(w http.ResponseWriter, route string) {
	if rec, ok := w.(*statusRecorder); ok {
		rec.route = route
	}
}

func setShard(w http.ResponseWriter, shard string) {
	if rec, ok := w.(*statusRecorder); ok {
		rec.shard = shard
	}
}

// statusClass buckets an HTTP status into its hundreds class index
// (2 for 2xx, ...). Returns 0 for out-of-range codes.
func statusClass(status int) int {
	c := status / 100
	if c < 1 || c > 5 {
		return 0
	}
	return c
}

var classNames = [6]string{"0xx", "1xx", "2xx", "3xx", "4xx", "5xx"}

// exemptPath reports the canonical spelling of the routes that bypass the
// concurrency limiter and request deadline ("" = not exempt). Trailing
// slashes are normalized first: an orchestrator probing /healthz/ must
// never be shed just for the extra slash, and the same goes for /stats
// and /metrics scrapers.
func exemptPath(p string) string {
	p = strings.TrimRight(p, "/")
	switch p {
	case "/healthz", "/stats", "/metrics":
		return p
	}
	return ""
}

// shardKeyForPath attributes a raw request path to a shard before the mux
// has run — the shed path needs it, since a 429 never reaches a handler.
// Hub-wide and liveness routes return "".
func (s *Server) shardKeyForPath(path string) string {
	switch strings.TrimRight(path, "/") {
	case "/datasets", "/stats", "/healthz", "/metrics":
		return ""
	}
	if rest, ok := strings.CutPrefix(path, "/datasets/"); ok {
		parts := strings.SplitN(rest, "/", 3)
		if len(parts) == 3 && parts[0] != "" && parts[1] != "" {
			return parts[0] + "/" + parts[1]
		}
		return ""
	}
	// Legacy un-prefixed routes address the default dataset.
	return s.cfg.DefaultTenant + "/" + s.cfg.DefaultDataset
}

// serverMetrics is the live half of the /metrics surface: the families
// the request path bumps directly. Scrape-time collectors (store, hub,
// cache, lifecycle gauges) are registered on the same registry at
// construction.
type serverMetrics struct {
	reg      *metrics.Registry
	requests *metrics.CounterVec   // route, shard, class
	duration *metrics.HistogramVec // route
	// notifications counts commit notes the live-timeline pump consumed;
	// maintenance counts how each was applied (extend / rebuild / skip).
	notifications *metrics.CounterVec // shard
	maintenance   *metrics.CounterVec // shard, mode
}

// newServerMetrics builds the registry and registers the scrape-time
// collectors over the server's existing counters and stores.
func newServerMetrics(s *Server) *serverMetrics {
	reg := metrics.NewRegistry()
	m := &serverMetrics{
		reg: reg,
		requests: reg.NewCounterVec("charles_http_requests_total",
			"HTTP requests by route pattern, shard, and status class (shed requests count under route \"(shed)\")",
			"route", "shard", "class"),
		duration: reg.NewHistogramVec("charles_http_request_duration_seconds",
			"HTTP request latency by route pattern", nil, "route"),
		notifications: reg.NewCounterVec("charles_commit_notifications_total",
			"commit notifications fanned out to the live-timeline registry, by shard",
			"shard"),
		maintenance: reg.NewCounterVec("charles_timeline_maintenance_total",
			"live timeline maintenance operations by shard and mode (extend = one incremental engine step, rebuild = full chain rebuild, skip = head moved without a maintainable timeline)",
			"shard", "mode"),
	}
	reg.NewGaugeFunc("charles_watch_subscribers",
		"active /timeline/watch subscribers (SSE streams and blocked long-polls)", nil,
		func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(s.watchSubs.Load())}}
		})
	reg.NewGaugeFunc("charles_http_in_flight",
		"requests currently holding a limiter slot", nil,
		func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(s.inflight.Load())}}
		})
	reg.NewGaugeFunc("charles_http_max_in_flight",
		"configured concurrency cap (0 = unlimited)", nil,
		func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(s.cfg.MaxInFlight)}}
		})
	reg.NewCounterFunc("charles_http_shed_total",
		"requests shed with 429 by the concurrency limiter", nil,
		func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(s.ServingStats().Shed)}}
		})

	// Summarize result cache.
	reg.NewCounterFunc("charles_result_cache_events_total",
		"summarize result cache counters by event (hit, miss, execution, eviction)",
		[]string{"event"}, func() []metrics.Sample {
			st := s.cache.Stats()
			return []metrics.Sample{
				{LabelValues: []string{"hit"}, Value: float64(st.Hits)},
				{LabelValues: []string{"miss"}, Value: float64(st.Misses)},
				{LabelValues: []string{"execution"}, Value: float64(st.Executions)},
				{LabelValues: []string{"eviction"}, Value: float64(st.Evictions)},
			}
		})
	reg.NewGaugeFunc("charles_result_cache_entries",
		"summarize result cache resident entries", nil,
		func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(s.cache.Stats().Entries)}}
		})

	// Store gauges, one sample per open shard, from the hub rollup walked
	// per scrape.
	perStore := func(pick func(store.Stats) float64) func() []metrics.Sample {
		return func() []metrics.Sample {
			var out []metrics.Sample
			for key, st := range s.storeStats() {
				out = append(out, metrics.Sample{LabelValues: []string{key}, Value: pick(st)})
			}
			return out
		}
	}
	reg.NewGaugeFunc("charles_store_versions", "committed versions per shard",
		[]string{"shard"}, perStore(func(st store.Stats) float64 { return float64(st.Versions) }))
	reg.NewGaugeFunc("charles_store_pack_bytes", "pack file bytes on disk per shard",
		[]string{"shard"}, perStore(func(st store.Stats) float64 { return float64(st.PackBytes) }))
	reg.NewGaugeFunc("charles_store_logical_bytes", "logical (canonical CSV) bytes represented per shard",
		[]string{"shard"}, perStore(func(st store.Stats) float64 { return float64(st.LogicalBytes) }))
	reg.NewCounterFunc("charles_store_csv_parses_total", "CSV parses (table cache miss fills) per shard",
		[]string{"shard"}, perStore(func(st store.Stats) float64 { return float64(st.Parses) }))
	reg.NewCounterFunc("charles_store_cache_events_total",
		"store LRU counters by cache (tables, blobs, changes, results) and event (hit, miss)",
		[]string{"shard", "cache", "event"}, func() []metrics.Sample {
			var out []metrics.Sample
			for key, st := range s.storeStats() {
				for _, c := range []struct {
					name string
					cs   store.CacheStats
				}{
					{"tables", st.Tables}, {"blobs", st.Blobs},
					{"changes", st.Changes}, {"results", st.Results},
				} {
					out = append(out,
						metrics.Sample{LabelValues: []string{key, c.name, "hit"}, Value: float64(c.cs.Hits)},
						metrics.Sample{LabelValues: []string{key, c.name, "miss"}, Value: float64(c.cs.Misses)})
				}
			}
			return out
		})

	reg.NewGaugeFunc("charles_hub_open_shards", "stores currently open in the hub", nil,
		func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(s.hub.Stats().OpenShards)}}
		})
	reg.NewGaugeFunc("charles_hub_budget_used_bytes",
		"bytes currently charged against the shared cache memory budget", nil,
		func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(s.hub.Stats().Budget.UsedBytes)}}
		})
	reg.NewGaugeFunc("charles_hub_budget_cap_bytes",
		"shared cache memory budget cap (0 = unlimited)", nil,
		func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(s.hub.Stats().Budget.CapBytes)}}
		})
	reg.NewCounterFunc("charles_hub_budget_evictions_total",
		"cache entries evicted to stay under the shared memory budget", nil,
		func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(s.hub.Stats().Budget.Evictions)}}
		})
	reg.NewCounterFunc("charles_hub_shard_ops_total",
		"hub shard operations by kind (commit; per-shard reads are charles_http_requests_total)",
		[]string{"shard", "kind"}, func() []metrics.Sample {
			var out []metrics.Sample
			for _, sh := range s.hub.Stats().Shards {
				out = append(out, metrics.Sample{
					LabelValues: []string{sh.Tenant + "/" + sh.Dataset, "commit"}, Value: float64(sh.Commits),
				})
			}
			return out
		})
	return m
}

// storeStats snapshots per-shard store stats for the scrape-time
// collectors from the hub rollup.
func (s *Server) storeStats() map[string]store.Stats {
	hs := s.hub.Stats()
	out := make(map[string]store.Stats, len(hs.Shards))
	for _, sh := range hs.Shards {
		out[sh.Tenant+"/"+sh.Dataset] = sh.Store
	}
	return out
}

// handleMetrics renders the registry in the Prometheus text exposition
// format. Exempt from the limiter: a scraper must see the saturated
// server, not be shed by it.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.reg.WriteText(w)
}

// finish is the single accounting sink: called exactly once per request
// after the response is written, with the shard key the request resolved
// (or was attributed) to — "" when the route is not shard-scoped.
func (s *Server) finish(rec *statusRecorder, r *http.Request, start time.Time, shardKey string) {
	if rec.status == 0 {
		// Handler wrote neither header nor body; net/http sends 200.
		rec.status = http.StatusOK
	}
	elapsed := time.Since(start)
	class := statusClass(rec.status)
	route := rec.route
	if route == "" {
		route = routeUnmatched
	}
	shardLabel := shardKey
	if shardLabel == "" {
		shardLabel = noShardLabel
	}
	s.metrics.requests.With(route, shardLabel, classNames[class]).Inc()
	s.metrics.duration.With(route).Observe(elapsed.Seconds())
	if s.reqLog != nil {
		s.reqLog.log(requestLogEntry{
			Time:       start.UTC().Format(time.RFC3339Nano),
			Method:     r.Method,
			Route:      route,
			Path:       r.URL.Path,
			Shard:      shardKey,
			Status:     rec.status,
			Bytes:      rec.bytes,
			DurationMS: float64(elapsed) / float64(time.Millisecond),
			Shed:       rec.shed,
		})
	}
}

// requestLogEntry is one structured (JSON-lines) request log record.
// Route is the mux pattern ("(shed)" / "(unmatched)" when no pattern
// applied), Shard the "tenant/dataset" key for dataset-scoped routes, and
// Bytes the response body size actually written.
type requestLogEntry struct {
	Time       string  `json:"time"`
	Method     string  `json:"method"`
	Route      string  `json:"route"`
	Path       string  `json:"path"`
	Shard      string  `json:"shard,omitempty"`
	Status     int     `json:"status"`
	Bytes      int64   `json:"bytes"`
	DurationMS float64 `json:"duration_ms"`
	Shed       bool    `json:"shed,omitempty"`
}

// requestLogger serializes JSON-lines writes to the configured sink. A
// failed write disables the logger rather than failing requests: access
// logging is diagnostic, not load-bearing.
type requestLogger struct {
	mu     sync.Mutex
	w      io.Writer
	failed bool
}

func newRequestLogger(w io.Writer) *requestLogger {
	if w == nil {
		return nil
	}
	return &requestLogger{w: w}
}

func (l *requestLogger) log(e requestLogEntry) {
	data, err := json.Marshal(e)
	if err != nil {
		return
	}
	data = append(data, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed {
		return
	}
	if _, err := l.w.Write(data); err != nil {
		l.failed = true
	}
}
