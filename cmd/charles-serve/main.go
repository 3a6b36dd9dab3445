// Command charles-serve runs the ChARLES summarization service: an
// HTTP/JSON API over a snapshot version store. Versions go in as CSV,
// ranked change summaries come out; repeated questions are answered from
// an LRU cache with singleflight deduplication.
//
// Usage:
//
//	charles-serve [-addr :8344] [-dir .charles-store] [-cache 128]
//	              [-max-inflight 0] [-timeout 0] [-drain-timeout 15s]
//	              [-read-timeout 30s] [-idle-timeout 2m] [-access-log PATH]
//	charles-serve -hub .charles-hub [-default-tenant default] [-default-dataset default]
//	              [-max-open-stores 32] [-mem-budget 256MiB-in-bytes] [...]
//
// Flags are recognized in all four spellings (-dir VALUE, -dir=VALUE,
// --dir VALUE, --dir=VALUE), anywhere on the command line.
//
// Every endpoint below also exists under /datasets/{tenant}/{dataset}/...,
// and the legacy un-prefixed routes serve the -default-tenant/
// -default-dataset shard. With -hub the service fronts a multi-tenant
// store hub: -max-open-stores soft-caps simultaneously open shards (idle
// ones close LRU-first), and -mem-budget bounds the total bytes all
// shards' checkout/blob/change-set/result caches may hold together. With
// -dir it serves one store as a hub of one dataset, the default one: every
// other tenant/dataset answers 404 and nothing else is ever created.
//
// Live timelines: every commit advances an incrementally maintained
// per-dataset timeline (one engine step per commit, full rebuild only on
// schema changes), so head-relative POST /timeline answers stay warm as
// data arrives, and GET /timeline/watch streams each commit's step — SSE
// without a query, one-shot long-poll with ?since=<version id>. Draining
// closes watch subscriptions promptly with a final drain event.
//
// Lifecycle: -max-inflight caps concurrently served requests (beyond it,
// requests are shed immediately with 429 + Retry-After; /healthz and
// /stats always answer), -timeout bounds each request's context (expired
// work returns 503), and SIGTERM/SIGINT triggers a graceful drain: the
// listener closes, in-flight requests get -drain-timeout to finish, then
// stragglers are cancelled and cut.
//
// Observability: GET /metrics exposes Prometheus text-format counters,
// latency histograms, and store/hub gauges ("charles_*" families; see the
// README's Operations section). -access-log appends one JSON line per
// completed request (method, route pattern, shard, status, bytes,
// duration) to the named file. /healthz, /stats, and /metrics bypass the
// -max-inflight limiter so probes and scrapers always answer.
//
// Endpoints (each also at /datasets/{tenant}/{dataset}/...):
//
//	POST /versions            commit a CSV snapshot {csv, key, parent?, message?}
//	GET  /versions            log, commit order
//	GET  /versions/{id}       version metadata + lineage
//	GET  /versions/{id}/csv   checkout the canonical CSV
//	GET  /diff?from=&to=      update distance + changed attrs (&target= for cells)
//	POST /summarize           {from, to, target, alpha?, c?, t?, topk?}
//	POST /timeline            {head?, target?, alpha?, c?, t?, topk?}
//	GET  /timeline/watch      subscribe to commit-driven timeline steps:
//	                          SSE stream, or long-poll with ?since=<version>
//	GET  /datasets            list tenant/dataset pairs
//	GET  /stats               cache + store + serving counters + hub rollup
//	GET  /metrics             Prometheus text exposition (limiter-exempt)
//	GET  /healthz             liveness
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	charles "charles"
	"charles/internal/cliflag"
)

func main() {
	fs := flag.NewFlagSet("charles-serve", flag.ExitOnError)
	addr := fs.String("addr", ":8344", "listen address")
	dir := fs.String("dir", ".charles-store", "store directory (empty = memory only)")
	hubDir := fs.String("hub", "", "hub root directory (multi-tenant mode; overrides -dir)")
	defTenant := fs.String("default-tenant", "", "tenant the legacy un-prefixed routes serve")
	defDataset := fs.String("default-dataset", "", "dataset the legacy un-prefixed routes serve")
	maxOpen := fs.Int("max-open-stores", 0, "soft cap on simultaneously open shards, idle ones close LRU-first (with -hub, 0 = default)")
	memBudget := fs.Int64("mem-budget", 0, "total bytes all shards' caches may hold together (with -hub, 0 = unlimited)")
	cache := fs.Int("cache", 0, "summarize result cache entries (0 = default)")
	maxInflight := fs.Int("max-inflight", 0, "max concurrently served requests; beyond it requests are shed with 429 (0 = unlimited)")
	timeout := fs.Duration("timeout", 0, "per-request deadline; expired work returns 503 (0 = none)")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second, "grace period for in-flight requests on SIGTERM before they are cancelled")
	readTimeout := fs.Duration("read-timeout", 30*time.Second, "max time to read a request (headers + body)")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "max keep-alive idle time per connection")
	accessLog := fs.String("access-log", "", "append one JSON line per request to this file (empty = no request log)")
	sub, rest, err := cliflag.ParseGlobal(fs, os.Args[1:])
	if err != nil {
		fatal(err)
	}
	if sub != "" || len(rest) != 0 {
		fatal(fmt.Errorf("unexpected argument %q (charles-serve takes only flags)", sub+fmt.Sprint(rest)))
	}

	cfg := charles.ServeConfig{
		CacheSize:      *cache,
		MaxInFlight:    *maxInflight,
		RequestTimeout: *timeout,
		DefaultTenant:  *defTenant,
		DefaultDataset: *defDataset,
	}
	if *accessLog != "" {
		f, err := os.OpenFile(*accessLog, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		cfg.RequestLog = f
	}
	var handler *charles.Server
	var where string
	var versions int
	if *hubDir != "" {
		h, err := charles.OpenHubWith(*hubDir, charles.HubOptions{
			MaxOpen:      *maxOpen,
			MemoryBudget: *memBudget,
		})
		if err != nil {
			fatal(err)
		}
		refs, err := h.Datasets()
		if err != nil {
			fatal(err)
		}
		handler = charles.NewHubServer(h, cfg)
		where = fmt.Sprintf("hub %s, %d dataset(s)", *hubDir, len(refs))
	} else {
		st, err := charles.OpenStore(*dir)
		if err != nil {
			fatal(err)
		}
		handler = charles.NewServerWith(st, cfg)
		versions = len(st.Log())
		where = *dir
		if where == "" {
			where = "(memory only)"
		}
		where = fmt.Sprintf("store %s, %d versions", where, versions)
	}

	// WriteTimeout must outlast the request deadline, or the connection is
	// cut before the handler can even write its 503.
	writeTimeout := 0 * time.Second
	if *timeout > 0 {
		writeTimeout = *timeout + 10*time.Second
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	log.Printf("charles-serve: %s, listening on %s", where, ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := charles.RunServer(ctx, srv, ln, *drainTimeout); err != nil {
		fatal(err)
	}
	log.Printf("charles-serve: drained cleanly")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "charles-serve:", err)
	os.Exit(1)
}
