package charles

import (
	"context"
	"net"
	"net/http"
	"time"

	"charles/internal/serve"
	"charles/internal/store"
)

// Server is the ChARLES summarization service: an HTTP/JSON API over a
// VersionStore with an LRU result cache and singleflight deduplication in
// front of Summarize. Commits drive an incrementally maintained per-dataset
// timeline (one engine step per commit), keeping head-relative POST
// /timeline answers warm and feeding GET /timeline/watch subscriptions.
// See cmd/charles-serve for the standalone binary and the endpoint list.
type Server = serve.Server

// ServerStats snapshots the service's result-cache counters.
type ServerStats = serve.Stats

// ServeConfig tunes the serving lifecycle: result-cache size, the
// concurrency cap behind 429 load shedding, the per-request deadline, and
// the structured request-log sink. The zero value is the historical
// behavior (default cache, unlimited concurrency, no deadline, no log).
type ServeConfig = serve.Config

// ServingStats snapshots the lifecycle counters: concurrency cap, requests
// in flight, requests shed with 429, and the per-shard request/status
// breakdown. The same counters back the server's GET /metrics endpoint,
// which renders them in the Prometheus text exposition format.
type ServingStats = serve.ServingStats

// ShardServingStats is one shard's serve-layer request counters: total
// requests (shed and failed-resolve included), shed count, and per
// status-class totals.
type ShardServingStats = serve.ShardServingStats

// NewServer wraps a version store in an http.Handler, served as a hub of
// one dataset (the default one). cacheSize bounds the summarize result
// cache (<=0 uses the default). The store may be shared with other
// goroutines — it is safe for concurrent use — and commits made on it
// directly reach the server's live timelines.
func NewServer(st *VersionStore, cacheSize int) *Server {
	return serve.NewServer(st, cacheSize)
}

// NewServerWith is NewServer with the full serving lifecycle config.
func NewServerWith(st *VersionStore, cfg ServeConfig) *Server {
	return serve.NewServerWith(st, cfg)
}

// RunServer runs srv on ln until ctx is cancelled, then drains gracefully:
// in-flight requests get drainTimeout to finish before being cancelled and
// cut. A drained shutdown returns nil (http.ErrServerClosed is the clean
// path, not an error).
func RunServer(ctx context.Context, srv *http.Server, ln net.Listener, drainTimeout time.Duration) error {
	return serve.Serve(ctx, srv, ln, drainTimeout)
}

// ErrLineageConflict is returned by VersionStore.Commit when content
// addressing dedups to an existing version whose parent differs from the
// requested one.
var ErrLineageConflict = store.ErrLineageConflict

// NewHubServer wraps a multi-tenant StoreHub in an http.Handler: every
// endpoint exists under /datasets/{tenant}/{dataset}/... and the legacy
// un-prefixed routes serve the default dataset. GET /stats rolls up
// per-shard store and serving counters plus the shared budget.
func NewHubServer(h *StoreHub, cfg ServeConfig) *Server {
	return serve.NewHubServer(h, cfg)
}
