// Package serve exposes version stores and the ChARLES summarization
// engine as a long-lived HTTP/JSON service — the "bolt-on versioning meets
// queryable change history" layer: versions go in, ranked change summaries
// come out, and repeated questions are answered from an LRU cache with
// singleflight deduplication (N identical in-flight requests run the
// engine once).
//
// A server fronts a multi-tenant Hub (NewHubServer). NewServer and
// NewServerWith serve one Store as a hub of one dataset, the default one,
// so every request takes the same path in both cases. Every data endpoint
// exists in two spellings:
//
//	/datasets/{tenant}/{ds}/<route>   addresses one hub shard
//	/<route>                          legacy alias for the default dataset
//
// Endpoints (per dataset):
//
//	POST .../versions               commit a CSV snapshot {csv, key, parent?, message?}
//	GET  .../versions               log, commit order
//	GET  .../versions/{id}          version metadata
//	GET  .../versions/{id}/csv      checkout the canonical CSV
//	GET  .../versions/{id}/changes  the version's decoded delta ops (ChangeSet)
//	GET  .../diff?from=&to=         removed/inserted keys, update distance, changed
//	                                attrs (&target= for cells) — the two
//	                                checkouts aligned, answer memoized
//	POST .../summarize              {from, to, target, alpha?, c?, t?, topk?}
//	POST .../timeline               {head?, target?, alpha?, c?, t?, topk?} — walk
//	                                the lineage root→head and summarize every step
//	                                (head-relative defaults answered live by the
//	                                dataset's shard from its maintained timeline)
//	GET  .../timeline/watch         subscribe to live timeline updates — an SSE
//	                                stream of per-commit step events, or one
//	                                long-poll cycle with ?since=<version>
//
// And hub-wide:
//
//	GET  /datasets               list tenant/dataset pairs
//	GET  /stats                  cache, store, hub, and per-shard serving counters
//	GET  /metrics                Prometheus text exposition (see metrics.go)
//	GET  /healthz                liveness
//
// Wrong-method requests are answered uniformly on every route: 405 with an
// Allow header and the JSON error envelope.
//
// Every request is instrumented: a statusRecorder captures what was
// answered, the /metrics registry counts it exactly once (shed 429s and
// shard-resolve failures included) — the serving section of GET /stats is
// read from the same counters — and an optional JSON-lines request log
// records method, route pattern, shard, status, bytes, and duration.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"charles/internal/core"
	"charles/internal/csvio"
	"charles/internal/store"
)

// DefaultCacheSize is the summarize-result LRU capacity when NewServer is
// given a non-positive size.
const DefaultCacheSize = 128

// DefaultDatasetName is the tenant and dataset name legacy (un-prefixed)
// routes address when the config does not override it.
const DefaultDatasetName = "default"

// maxBodyBytes bounds request bodies (CSV snapshots included).
const maxBodyBytes = 64 << 20

// Config tunes the serving lifecycle. The zero value matches the historical
// behavior: default cache, unlimited concurrency, no per-request deadline.
type Config struct {
	// CacheSize bounds the summarize result LRU (<=0 uses DefaultCacheSize).
	CacheSize int
	// MaxInFlight caps concurrently served requests (liveness and stats
	// endpoints are exempt). A request arriving with every slot taken is
	// shed immediately with 429 and a Retry-After header — the server never
	// queues, so saturation degrades into fast rejections instead of
	// unbounded memory growth and collapsing tail latencies. 0 = unlimited.
	MaxInFlight int
	// RequestTimeout bounds each non-exempt request's context. Work that
	// observes the deadline (timeline walks, history pools) stops early and
	// the client gets 503. 0 = no deadline.
	RequestTimeout time.Duration
	// RetryAfter is the advisory Retry-After duration on shed responses
	// (rounded up to whole seconds; 0 = 1s).
	RetryAfter time.Duration
	// DefaultTenant and DefaultDataset name the shard the legacy
	// (un-prefixed) routes address; both default to "default". A server
	// over one store serves it under these names and knows no other
	// dataset.
	DefaultTenant  string
	DefaultDataset string
	// RequestLog, when non-nil, receives one JSON line per completed
	// request (see requestLogEntry). Writes are serialized internally; a
	// write error disables the log instead of failing requests.
	RequestLog io.Writer
}

// Server is the HTTP front end over a Hub of stores. Stores are safe for
// concurrent use and the engine runs outside the store's lock, so any
// number of requests proceed in parallel; identical summarize requests are
// collapsed by the cache (keyed per shard).
type Server struct {
	hub   *store.Hub
	cache *store.Cache[any] // engine results and walk answers, entry-bounded
	mux   *http.ServeMux
	cfg   Config

	slots    chan struct{} // nil = unlimited
	inflight atomic.Int64

	// live is the commit-driven timeline registry (see live.go); the pump
	// goroutine feeds it from the hub's commit subscription. watchSubs
	// counts active /timeline/watch subscribers (SSE + blocked long-polls).
	// life is the server-lifetime context the pump's rebuilds run under;
	// BeginDrain cancels it (drain) so those rebuilds and the watch handlers
	// end promptly inside the graceful-drain window.
	live      *liveRegistry
	watchSubs atomic.Int64
	life      context.Context
	drain     context.CancelFunc

	// Test seams (set only from package tests): testDelay runs after a
	// limiter slot is held, stepHook before each timeline engine run that
	// misses the result cache.
	testDelay func(*http.Request)
	stepHook  func()

	metrics *serverMetrics
	reqLog  *requestLogger // nil = request logging disabled
}

// shardRef is one request's resolved shard: the store to serve from and
// the names that key its cache entries and counters.
type shardRef struct {
	tenant  string
	dataset string
	st      *store.Store
}

// cacheKeyPrefix namespaces result-cache keys per shard, so two datasets'
// identical version ids can never collide in the shared LRU.
func (sh *shardRef) cacheKeyPrefix() string {
	return sh.tenant + "/" + sh.dataset + "|"
}

// stepKey is the result-cache key of one engine run over the pair from →
// to with options fingerprint fp, shared by POST /summarize and every
// timeline step.
func (sh *shardRef) stepKey(from, to, fp string) string {
	return sh.cacheKeyPrefix() + from + "|" + to + "|" + fp
}

// NewServer wraps st in an HTTP handler with a result cache of cacheSize
// entries (<=0 uses DefaultCacheSize), no concurrency cap, and no request
// deadline — the historical constructor, now sugar over NewServerWith.
func NewServer(st *store.Store, cacheSize int) *Server {
	return NewServerWith(st, Config{CacheSize: cacheSize})
}

// NewServerWith serves st with the full serving config, as a hub of one
// dataset: the default one, under cfg's default names. Commits made
// directly on st reach the live timelines too.
func NewServerWith(st *store.Store, cfg Config) *Server {
	cfg = cfg.withDefaults()
	return NewHubServer(store.HubOf(st, cfg.DefaultTenant, cfg.DefaultDataset), cfg)
}

func (cfg Config) withDefaults() Config {
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = DefaultCacheSize
	}
	if cfg.DefaultTenant == "" {
		cfg.DefaultTenant = DefaultDatasetName
	}
	if cfg.DefaultDataset == "" {
		cfg.DefaultDataset = DefaultDatasetName
	}
	return cfg
}

// NewHubServer serves a multi-tenant Hub: every dataset is addressable
// under /datasets/{tenant}/{ds}/..., the legacy routes alias the default
// dataset, and GET /stats rolls up per-shard serving and store counters
// plus the hub's shared memory budget.
func NewHubServer(h *store.Hub, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		hub:    h,
		cache:  store.NewCache[any](cfg.CacheSize, nil, nil),
		cfg:    cfg,
		reqLog: newRequestLogger(cfg.RequestLog),
		live:   newLiveRegistry(),
	}
	s.life, s.drain = context.WithCancel(context.Background()) //lint:allow ctxflow the commit pump outlives every request; BeginDrain cancels it
	s.metrics = newServerMetrics(s)
	if cfg.MaxInFlight > 0 {
		s.slots = make(chan struct{}, cfg.MaxInFlight)
	}
	// The commit pump: one goroutine bridging the hub's commit feed into
	// the live-timeline registry. It exits when the hub's feed closes.
	go s.pumpHub(h.Subscribe(0))
	mux := http.NewServeMux()
	// Each dataset route is registered twice: under the explicit
	// /datasets/{tenant}/{ds} prefix and at the legacy root (which aliases
	// the default dataset). Only POST /versions (commit=true) may create
	// the shard; every other route, the engine's included, must 404 on
	// unknown datasets instead.
	shardRoutes := []struct {
		method, pattern string
		commit          bool
		h               func(*shardRef, http.ResponseWriter, *http.Request)
	}{
		{"POST", "/versions", true, s.handleCommit},
		{"GET", "/versions", false, s.handleLog},
		{"GET", "/versions/{id}", false, s.handleVersion},
		{"GET", "/versions/{id}/csv", false, s.handleCheckout},
		{"GET", "/versions/{id}/changes", false, s.handleChanges},
		{"GET", "/diff", false, s.handleDiff},
		{"POST", "/summarize", false, s.handleSummarize},
		{"POST", "/timeline", false, s.handleTimeline},
		{"GET", "/timeline/watch", false, s.handleWatch},
	}
	// tagRoute stamps the matched pattern onto the request's
	// statusRecorder so accounting and the request log see the route
	// pattern, not the raw (unbounded-cardinality) path.
	tagRoute := func(pattern string, h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			setRoute(w, pattern)
			h(w, r)
		}
	}
	allowed := map[string][]string{}
	for _, r := range shardRoutes {
		wrapped := s.onShard(r.commit, r.h)
		for _, pattern := range []string{r.pattern, "/datasets/{tenant}/{ds}" + r.pattern} {
			mux.HandleFunc(r.method+" "+pattern, tagRoute(pattern, wrapped))
			allowed[pattern] = append(allowed[pattern], r.method)
		}
	}
	plainRoutes := []struct {
		method, pattern string
		h               http.HandlerFunc
	}{
		{"GET", "/datasets", s.handleDatasets},
		{"GET", "/stats", s.handleStats},
		{"GET", "/metrics", s.handleMetrics},
		{"GET", "/healthz", func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		}},
	}
	for _, r := range plainRoutes {
		mux.HandleFunc(r.method+" "+r.pattern, tagRoute(r.pattern, r.h))
		allowed[r.pattern] = append(allowed[r.pattern], r.method)
	}
	// Every route also gets a method-agnostic fallback, so a wrong-method
	// request is answered uniformly on every endpoint: 405, an Allow header
	// listing the methods that would work, and the JSON error envelope
	// (instead of net/http's plain-text default).
	for pattern, methods := range allowed {
		sort.Strings(methods)
		allow := strings.Join(methods, ", ")
		mux.HandleFunc(pattern, tagRoute(pattern, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Allow", allow)
			writeJSON(w, http.StatusMethodNotAllowed, errorJSON{
				Error: fmt.Sprintf("method %s not allowed (allow: %s)", r.Method, allow),
			})
		}))
	}
	s.mux = mux
	return s
}

// onShard adapts a shard handler into an http.HandlerFunc: resolve the
// request's shard — the {tenant}/{ds} path values when present, the
// default dataset on legacy routes — pin it in the hub for the request,
// and tag the request's recorder with the shard key. The tag comes before
// the acquire, so a failed resolve (unknown dataset, invalid name) is
// still attributed to the shard it addressed when Server.finish counts
// the request. Only the commit route may create the shard; on every other
// route an unknown dataset is a 404, never a freshly created directory.
func (s *Server) onShard(commit bool, h func(*shardRef, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	acquire := s.hub.AcquireExisting
	if commit {
		acquire = s.hub.Acquire
	}
	return func(w http.ResponseWriter, r *http.Request) {
		tenant, dataset := r.PathValue("tenant"), r.PathValue("ds")
		if tenant == "" && dataset == "" {
			tenant, dataset = s.cfg.DefaultTenant, s.cfg.DefaultDataset
		}
		setShard(w, tenant+"/"+dataset)
		st, release, err := acquire(tenant, dataset)
		if err != nil {
			writeError(w, err)
			return
		}
		defer release()
		h(&shardRef{tenant: tenant, dataset: dataset, st: st}, w, r)
	}
}

// ServeHTTP implements http.Handler: body bounding, load shedding, and the
// per-request deadline wrap every route except the liveness, stats, and
// metrics endpoints — a saturated server must still answer health checks
// (or its orchestrator would shoot a box that is merely busy), stats
// probes, and scrapes. The exemption is trailing-slash tolerant: an
// orchestrator probing /healthz/ must never be shed for the extra slash.
// Every path through here — exempt, shed, or served — funnels into one
// finish call for the /metrics counters and the request log.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	start := time.Now()
	rec := &statusRecorder{ResponseWriter: w}
	if p := exemptPath(r.URL.Path); p != "" {
		if p != r.URL.Path {
			// Canonicalize so the mux pattern matches the slashed spelling.
			r2 := r.Clone(r.Context())
			r2.URL.Path = p
			r = r2
		}
		s.mux.ServeHTTP(rec, r)
		s.finish(rec, r, start, "")
		return
	}
	if s.slots != nil {
		select {
		case s.slots <- struct{}{}:
			defer func() { <-s.slots }()
		default:
			// Shed immediately: no queue means overload cannot pile up
			// latent work the client has long since abandoned.
			retry := s.cfg.RetryAfter
			if retry <= 0 {
				retry = time.Second
			}
			secs := int((retry + time.Second - 1) / time.Second)
			rec.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
			writeJSON(rec, http.StatusTooManyRequests, errorJSON{
				Error: fmt.Sprintf("server at capacity (%d in flight); retry after %ds", s.cfg.MaxInFlight, secs),
			})
			rec.route, rec.shed = routeShed, true
			s.finish(rec, r, start, s.shardKeyForPath(r.URL.Path))
			return
		}
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.testDelay != nil {
		s.testDelay(r)
	}
	if s.cfg.RequestTimeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
	}
	s.mux.ServeHTTP(rec, r)
	s.finish(rec, r, start, rec.shard)
}

// BeginDrain tells long-lived handlers (SSE streams, blocked long-polls on
// /timeline/watch) that shutdown has begun: they finish their current write
// and return, releasing their limiter slots inside the graceful-drain
// window instead of holding connections open until the force-close. A
// commit-pump rebuild in progress stops at its next engine step.
// Idempotent; called by the lifecycle (see Serve) at SIGTERM.
func (s *Server) BeginDrain() { s.drain() }

// Stats snapshots the summarize cache counters.
func (s *Server) Stats() Stats { return Stats(s.cache.Stats()) }

// ShardServingStats is one shard's serve-layer request counters.
// Requests counts every request attributed to the shard — served, shed
// with 429, or failed at shard resolution — so traffic under overload is
// fully visible. Status breaks the same total down by status class
// ("2xx".."5xx"; classes with zero requests are omitted).
type ShardServingStats struct {
	Requests int64            `json:"requests"`
	Shed     int64            `json:"shed,omitempty"`
	Status   map[string]int64 `json:"status,omitempty"`
}

// ServingStats is a snapshot of the lifecycle counters: the concurrency
// cap (0 = unlimited), the requests currently holding a slot, the total
// shed with 429 since startup, and the per-shard request counts.
type ServingStats struct {
	MaxInFlight int                          `json:"maxInFlight"`
	InFlight    int64                        `json:"inFlight"`
	Shed        int64                        `json:"shed"`
	Shards      map[string]ShardServingStats `json:"shards,omitempty"`
}

// ServingStats snapshots the load-shedding and per-shard counters, summed
// from charles_http_requests_total: every request is counted there once,
// and this is a view of it (shed requests are its "(shed)" route).
func (s *Server) ServingStats() ServingStats {
	st := ServingStats{MaxInFlight: s.cfg.MaxInFlight, InFlight: s.inflight.Load()}
	shards := map[string]ShardServingStats{}
	s.metrics.requests.Each(func(lv []string, n int64) {
		route, shard, class := lv[0], lv[1], lv[2]
		shed := route == routeShed
		if shed {
			st.Shed += n
		}
		if shard == noShardLabel || n == 0 {
			return
		}
		sss := shards[shard]
		sss.Requests += n
		if shed {
			sss.Shed += n
		}
		if sss.Status == nil {
			sss.Status = map[string]int64{}
		}
		sss.Status[class] += n
		shards[shard] = sss
	})
	if len(shards) > 0 {
		st.Shards = shards
	}
	return st
}

// errorJSON is the uniform error envelope.
type errorJSON struct {
	Error string `json:"error"`
}

// writeJSON answers v with code, indented two spaces a level and ending in
// a newline. It marshals before it writes anything, so a value JSON cannot
// carry (a NaN in a summary) answers through writeError, never as a status
// line with an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(body, '\n'))
}

// statusClientClosedRequest is the (nginx-conventional) status logged when
// the client cancelled mid-request; the client is gone, so the code is for
// operators reading access logs, not for the wire.
const statusClientClosedRequest = 499

// writeError maps store/engine errors onto HTTP status codes: unknown ids
// and datasets are 404, lineage conflicts 409, an expired request deadline
// 503 (the server gave up under its own timeout — retryable), a shard or
// hub closed mid-request 503 (the hub evicted or is shutting down —
// retryable), a client cancellation 499, server-side damage — corrupt
// stored data, IO failures (persist hitting a full or broken disk), an
// answer JSON cannot carry (a NaN in a summary) — 500, and everything else
// — malformed bodies, invalid names, CSV parse errors, engine option
// validation — 400.
func writeError(w http.ResponseWriter, err error) {
	var pathErr *fs.PathError
	var unencodable *json.UnsupportedValueError
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled):
		code = statusClientClosedRequest
	case errors.Is(err, store.ErrNotFound), errors.Is(err, store.ErrUnknownDataset):
		code = http.StatusNotFound
	case errors.Is(err, store.ErrLineageConflict):
		code = http.StatusConflict
	case errors.Is(err, store.ErrStoreClosed), errors.Is(err, store.ErrHubClosed):
		code = http.StatusServiceUnavailable
	case errors.Is(err, store.ErrCorruptStore), errors.As(err, &pathErr), errors.As(err, &unencodable):
		code = http.StatusInternalServerError
	}
	writeJSON(w, code, errorJSON{Error: err.Error()})
}

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// commitRequest is the POST .../versions body.
type commitRequest struct {
	CSV     string   `json:"csv"`
	Key     []string `json:"key"`
	Parent  string   `json:"parent,omitempty"`
	Message string   `json:"message,omitempty"`
}

func (s *Server) handleCommit(sh *shardRef, w http.ResponseWriter, r *http.Request) {
	var req commitRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.CSV == "" || len(req.Key) == 0 {
		writeError(w, errors.New("commit needs csv and key"))
		return
	}
	t, err := csvio.Read(strings.NewReader(req.CSV), csvio.Options{Key: req.Key})
	if err != nil {
		writeError(w, err)
		return
	}
	v, err := s.hub.Commit(sh.tenant, sh.dataset, t, req.Parent, req.Message)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleLog(sh *shardRef, w http.ResponseWriter, _ *http.Request) {
	log := sh.st.Log()
	if log == nil {
		log = []*store.Version{}
	}
	writeJSON(w, http.StatusOK, log)
}

// versionResponse is the GET .../versions/{id} body: metadata plus lineage.
type versionResponse struct {
	*store.Version
	Lineage []string `json:"lineage"` // ids, newest first, self included
}

func (s *Server) handleVersion(sh *shardRef, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, err := sh.st.Get(id)
	if err != nil {
		writeError(w, err)
		return
	}
	lineage, err := sh.st.Lineage(id)
	if err != nil {
		writeError(w, err)
		return
	}
	ids := make([]string, len(lineage))
	for i, lv := range lineage {
		ids[i] = lv.ID
	}
	writeJSON(w, http.StatusOK, versionResponse{Version: v, Lineage: ids})
}

func (s *Server) handleCheckout(sh *shardRef, w http.ResponseWriter, r *http.Request) {
	blob, err := sh.st.Blob(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	_, _ = w.Write(blob)
}

// diffResponse is the GET .../diff body.
type diffResponse struct {
	From           string       `json:"from"`
	To             string       `json:"to"`
	UpdateDistance int          `json:"updateDistance"`
	ChangedAttrs   []string     `json:"changedAttrs"`
	Removed        []string     `json:"removed,omitempty"`  // keys only in from
	Inserted       []string     `json:"inserted,omitempty"` // keys only in to
	Changes        []changeJSON `json:"changes,omitempty"`  // with &target=
}

type changeJSON struct {
	Key  string `json:"key"`
	Attr string `json:"attr"`
	Old  string `json:"old"`
	New  string `json:"new"`
}

func (s *Server) handleDiff(sh *shardRef, w http.ResponseWriter, r *http.Request) {
	from, to := r.URL.Query().Get("from"), r.URL.Query().Get("to")
	if from == "" || to == "" {
		writeError(w, errors.New("diff needs from and to"))
		return
	}
	// The engine's change tolerance, so a diff reports the changes a
	// summary of the same pair sees.
	res, _, err := sh.st.DiffResult(from, to, core.ChangeTol)
	if err != nil {
		writeError(w, err)
		return
	}
	attrs := res.ChangedAttrs
	if attrs == nil {
		attrs = []string{}
	}
	resp := diffResponse{
		From: from, To: to,
		UpdateDistance: res.UpdateDistance, ChangedAttrs: attrs,
		Removed: res.Removed, Inserted: res.Inserted,
	}
	if target := r.URL.Query().Get("target"); target != "" {
		if !res.HasColumn(target) {
			writeError(w, fmt.Errorf("no column %q", target))
			return
		}
		for _, ch := range res.ChangesFor(target) {
			resp.Changes = append(resp.Changes, changeJSON{
				Key: ch.Key, Attr: ch.Attr, Old: ch.Old.String(), New: ch.New.String(),
			})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// changesResponse is the GET .../versions/{id}/changes body: the version's
// decoded delta ops, with patch and insert cells keyed by column name.
type changesResponse struct {
	Version      string          `json:"version"`
	Parent       string          `json:"parent,omitempty"`
	Materialized bool            `json:"materialized"`
	Columns      []string        `json:"columns,omitempty"`
	Removed      []string        `json:"removed,omitempty"`
	Inserted     []rowChangeJSON `json:"inserted,omitempty"`
	Patched      []rowChangeJSON `json:"patched,omitempty"`
}

type rowChangeJSON struct {
	Key   string            `json:"key"`
	Cells map[string]string `json:"cells"`
}

func (s *Server) handleChanges(sh *shardRef, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	cs, err := sh.st.Changes(id)
	if err != nil {
		writeError(w, err)
		return
	}
	resp := changesResponse{
		Version: cs.Version, Parent: cs.Base,
		Materialized: cs.Materialized,
		Columns:      cs.Columns,
		Removed:      cs.Removed,
	}
	colName := func(ci int) (string, bool) {
		if ci < 0 || ci >= len(cs.Columns) {
			return "", false
		}
		return cs.Columns[ci], true
	}
	for _, ins := range cs.Inserted {
		cells := map[string]string{}
		for ci, val := range ins.Cells {
			name, ok := colName(ci)
			if !ok {
				writeError(w, fmt.Errorf("%w: version %s: insert cell %d beyond header", store.ErrCorruptStore, id, ci))
				return
			}
			cells[name] = val
		}
		resp.Inserted = append(resp.Inserted, rowChangeJSON{Key: ins.Key, Cells: cells})
	}
	for _, p := range cs.Patched {
		cells := map[string]string{}
		for i, ci := range p.Cols {
			name, ok := colName(ci)
			if !ok {
				writeError(w, fmt.Errorf("%w: version %s: patch column %d beyond header", store.ErrCorruptStore, id, ci))
				return
			}
			cells[name] = p.Vals[i]
		}
		resp.Patched = append(resp.Patched, rowChangeJSON{Key: p.Key, Cells: cells})
	}
	writeJSON(w, http.StatusOK, resp)
}

// tuning is the engine tuning a POST .../summarize or POST .../timeline
// body may carry. An omitted field keeps the engine default (c=3, t=2,
// α=0.5, top-10).
type tuning struct {
	Alpha *float64 `json:"alpha,omitempty"`
	C     *int     `json:"c,omitempty"`
	T     *int     `json:"t,omitempty"`
	TopK  *int     `json:"topk,omitempty"`
}

// options returns the engine defaults for target with the tuning applied.
func (tu tuning) options(target string) core.Options {
	opts := core.DefaultOptions(target)
	if tu.Alpha != nil {
		opts.Alpha = *tu.Alpha
	}
	if tu.C != nil {
		opts.C = *tu.C
	}
	if tu.T != nil {
		opts.T = *tu.T
	}
	if tu.TopK != nil {
		opts.TopK = *tu.TopK
	}
	return opts
}

// summarizeRequest is the POST .../summarize body.
type summarizeRequest struct {
	From   string `json:"from"`
	To     string `json:"to"`
	Target string `json:"target"`
	tuning
}

// summarizeResponse is the POST .../summarize body.
type summarizeResponse struct {
	From               string       `json:"from"`
	To                 string       `json:"to"`
	Target             string       `json:"target"`
	OptionsFingerprint string       `json:"optionsFingerprint"`
	Cached             bool         `json:"cached"`
	Ranked             []RankedJSON `json:"ranked"`
}

func (s *Server) handleSummarize(sh *shardRef, w http.ResponseWriter, r *http.Request) {
	var req summarizeRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.From == "" || req.To == "" || req.Target == "" {
		writeError(w, errors.New("summarize needs from, to and target"))
		return
	}
	// Resolve ids up front so unknown versions 404 before touching the
	// cache (and so invalid requests never occupy a singleflight slot).
	if _, err := sh.st.Get(req.From); err != nil {
		writeError(w, err)
		return
	}
	if _, err := sh.st.Get(req.To); err != nil {
		writeError(w, err)
		return
	}
	opts := req.options(req.Target)
	fp := opts.Fingerprint()
	ctx := r.Context()
	val, hit, err := s.cache.Do(sh.stepKey(req.From, req.To, fp), func() (any, error) {
		// A request that timed out or was abandoned while waiting its turn
		// must not start an engine run nobody will read.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return sh.st.Summarize(req.From, req.To, opts)
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, summarizeResponse{
		From: req.From, To: req.To, Target: req.Target,
		OptionsFingerprint: fp,
		Cached:             hit,
		Ranked:             EncodeRanked(val.([]core.Ranked)),
	})
}

// handleDatasets lists the hub's tenant/dataset pairs.
func (s *Server) handleDatasets(w http.ResponseWriter, _ *http.Request) {
	refs, err := s.hub.Datasets()
	if err != nil {
		writeError(w, err)
		return
	}
	if refs == nil {
		refs = []store.DatasetRef{}
	}
	writeJSON(w, http.StatusOK, refs)
}

// statsResponse is the GET /stats body: the summarize-cache counters, the
// serving lifecycle (in-flight / shed / per-shard request) counters, and
// the hub rollup (per-shard store stats and commit counters, shared memory
// budget) with the default shard mirrored into "store" for legacy readers.
type statsResponse struct {
	Stats
	Store   store.Stats     `json:"store"`
	Serving ServingStats    `json:"serving"`
	Hub     *store.HubStats `json:"hub"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	hs := s.hub.Stats()
	resp := statsResponse{Stats: s.Stats(), Serving: s.ServingStats(), Hub: &hs}
	for _, sh := range hs.Shards {
		if sh.Tenant == s.cfg.DefaultTenant && sh.Dataset == s.cfg.DefaultDataset {
			resp.Store = sh.Store
			break
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
