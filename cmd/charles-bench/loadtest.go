package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"charles"
	"charles/internal/csvio"
	"charles/internal/metrics"
	"charles/internal/serve"
	"charles/internal/store"
)

// LoadtestResult is one measured HTTP load-test run: throughput, latency
// percentiles, and the error/shed breakdown, recorded alongside the
// micro-benchmarks in BENCH_baseline.json.
type LoadtestResult struct {
	Concurrency int     `json:"concurrency"`
	DurationSec float64 `json:"duration_sec"`
	Requests    int64   `json:"requests"`
	RPS         float64 `json:"rps"`
	P50MS       float64 `json:"p50_ms"`
	P95MS       float64 `json:"p95_ms"`
	P99MS       float64 `json:"p99_ms"`
	Shed        int64   `json:"shed"`    // 429s from the concurrency limiter
	Err4xx      int64   `json:"err_4xx"` // non-429 4xx (should be zero in the fixed mix)
	Err5xx      int64   `json:"err_5xx"`
}

// runLoadtest is the `charles-bench loadtest` subcommand: drive the HTTP
// serving surface at a configurable concurrency for a fixed duration with
// a mixed read/summarize workload, then report percentile latencies and
// validate the server's /metrics output.
func runLoadtest(args []string) error {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	var (
		url         = fs.String("url", "", "base URL of a running charles-serve (empty = start an in-process server over a seeded memory store)")
		concurrency = fs.Int("concurrency", 16, "concurrent client workers")
		duration    = fs.Duration("duration", 5*time.Second, "how long to drive load")
		maxInFlight = fs.Int("max-inflight", 64, "server concurrency cap for the in-process server (0 = unlimited)")
		out         = fs.String("out", "", "record the result under \"loadtest\" in this BENCH json file, preserving other sections")
		check       = fs.Bool("check", false, "exit non-zero unless the run served 2xx traffic with zero 5xx (CI smoke)")
		live        = fs.Bool("live", false, "drive the live commit+watch workload instead of the read mix: a committer appends versions while watchers ride /timeline/watch; the recorded latency is the full commit -> watch-delivery -> warm /timeline answer cycle")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: charles-bench loadtest [flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	var res LoadtestResult
	var base string
	resultName := "ServeMixed"
	if *live {
		// The live workload grows its own lineage on a fresh store; an
		// external -url target would be polluted with bench commits.
		if *url != "" {
			return fmt.Errorf("loadtest: -live drives commits and needs its own in-process server; drop -url")
		}
		resultName = "ServeLiveCommit"
		srvURL, shutdown, err := startLiveServer(*maxInFlight)
		if err != nil {
			return err
		}
		defer shutdown()
		base = srvURL
		if res, err = driveLiveLoad(base, *concurrency, *duration); err != nil {
			return err
		}
	} else {
		base = *url
		if base == "" {
			srvURL, shutdown, err := startLoadtestServer(*maxInFlight)
			if err != nil {
				return err
			}
			defer shutdown()
			base = srvURL
		}
		ids, err := fetchVersionIDs(base)
		if err != nil {
			return err
		}
		if len(ids) < 2 {
			return fmt.Errorf("loadtest: target %s has %d versions, need >= 2 (commit a chain first)", base, len(ids))
		}
		if res, err = driveLoad(base, ids, *concurrency, *duration); err != nil {
			return err
		}
	}

	// Scrape and lint /metrics after the run: the loadtest doubles as the
	// exposition-format check against a server that just saw real traffic.
	if err := lintMetrics(base); err != nil {
		return fmt.Errorf("loadtest: /metrics validation failed: %w", err)
	}
	if *live {
		if err := checkLiveMetrics(base); err != nil {
			return fmt.Errorf("loadtest: live metrics validation failed: %w", err)
		}
	}

	fmt.Printf("loadtest: %d workers, %s against %s\n", *concurrency, duration.String(), base)
	fmt.Printf("  requests  %d (%.0f req/s)\n", res.Requests, res.RPS)
	fmt.Printf("  latency   p50 %.2fms  p95 %.2fms  p99 %.2fms\n", res.P50MS, res.P95MS, res.P99MS)
	fmt.Printf("  shed %d   4xx %d   5xx %d\n", res.Shed, res.Err4xx, res.Err5xx)
	fmt.Println("  metrics   /metrics parsed and linted OK")

	if *out != "" {
		if err := recordLoadtest(*out, resultName, res); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if *check {
		served := res.Requests - res.Shed - res.Err4xx - res.Err5xx
		if served <= 0 {
			return fmt.Errorf("loadtest check failed: no successful requests (total %d, shed %d, 4xx %d, 5xx %d)",
				res.Requests, res.Shed, res.Err4xx, res.Err5xx)
		}
		if res.Err5xx > 0 {
			return fmt.Errorf("loadtest check failed: %d server errors", res.Err5xx)
		}
	}
	return nil
}

// startLoadtestServer seeds a memory store with a deterministic 8-step
// version chain and serves it on a loopback listener.
func startLoadtestServer(maxInFlight int) (string, func(), error) {
	snaps, err := charles.ChainDataset(charles.ChainConfig{N: 200, Steps: 8, Seed: 1})
	if err != nil {
		return "", nil, err
	}
	st, err := store.Open("")
	if err != nil {
		return "", nil, err
	}
	parent := ""
	for _, snap := range snaps {
		v, err := st.Commit(snap, parent, "loadtest step")
		if err != nil {
			return "", nil, err
		}
		parent = v.ID
	}
	srv := serve.NewServerWith(st, serve.Config{CacheSize: 64, MaxInFlight: maxInFlight})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: srv}
	go func() { _ = hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = hs.Close() }, nil
}

// fetchVersionIDs lists the target's version chain (oldest first).
func fetchVersionIDs(base string) ([]string, error) {
	resp, err := http.Get(base + "/versions")
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /versions: status %d: %s", resp.StatusCode, body)
	}
	var versions []store.Version
	if err := json.Unmarshal(body, &versions); err != nil {
		return nil, fmt.Errorf("GET /versions: %w", err)
	}
	ids := make([]string, len(versions))
	for i, v := range versions {
		ids[i] = v.ID
	}
	return ids, nil
}

// driveLoad runs the mixed workload: version log reads, CSV checkouts,
// adjacent-pair diffs, and summarize queries in a fixed rotation, each
// worker with its own seeded RNG so runs are comparable.
func driveLoad(base string, ids []string, concurrency int, duration time.Duration) (LoadtestResult, error) {
	if concurrency < 1 {
		concurrency = 1
	}
	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        concurrency * 2,
			MaxIdleConnsPerHost: concurrency * 2,
		},
		Timeout: 30 * time.Second,
	}
	var (
		shed, err4xx, err5xx, total atomic.Int64
		mu                          sync.Mutex
		latencies                   []time.Duration
		firstErr                    error
		errOnce                     sync.Once
	)
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			local := make([]time.Duration, 0, 4096)
			for i := 0; time.Now().Before(deadline); i++ {
				pair := rng.Intn(len(ids) - 1)
				var (
					resp *http.Response
					err  error
					t0   = time.Now()
				)
				switch i % 4 {
				case 0:
					resp, err = client.Get(base + "/versions")
				case 1:
					resp, err = client.Get(base + "/versions/" + ids[pair] + "/csv")
				case 2:
					resp, err = client.Get(base + "/diff?from=" + ids[pair] + "&to=" + ids[pair+1])
				default:
					body, merr := json.Marshal(map[string]string{
						"from": ids[pair], "to": ids[pair+1], "target": "salary",
					})
					if merr != nil {
						err = merr
						break
					}
					resp, err = client.Post(base+"/summarize", "application/json", bytes.NewReader(body))
				}
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				local = append(local, time.Since(t0))
				total.Add(1)
				switch {
				case resp.StatusCode == http.StatusTooManyRequests:
					shed.Add(1)
				case resp.StatusCode >= 500:
					err5xx.Add(1)
				case resp.StatusCode >= 400:
					err4xx.Add(1)
				}
			}
			mu.Lock()
			latencies = append(latencies, local...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return LoadtestResult{}, fmt.Errorf("loadtest worker: %w", firstErr)
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		idx := int(p * float64(len(latencies)-1))
		return float64(latencies[idx]) / float64(time.Millisecond)
	}
	return LoadtestResult{
		Concurrency: concurrency,
		DurationSec: duration.Seconds(),
		Requests:    total.Load(),
		RPS:         float64(total.Load()) / duration.Seconds(),
		P50MS:       pct(0.50),
		P95MS:       pct(0.95),
		P99MS:       pct(0.99),
		Shed:        shed.Load(),
		Err4xx:      err4xx.Load(),
		Err5xx:      err5xx.Load(),
	}, nil
}

// startLiveServer serves a fresh, empty memory store: the live workload
// grows the lineage itself, commit by commit.
func startLiveServer(maxInFlight int) (string, func(), error) {
	st, err := store.Open("")
	if err != nil {
		return "", nil, err
	}
	srv := serve.NewServerWith(st, serve.Config{CacheSize: 256, MaxInFlight: maxInFlight})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: srv}
	go func() { _ = hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = hs.Close() }, nil
}

// driveLiveLoad runs the live commit+watch workload: one committer appends
// pre-generated snapshots to the lineage, riding each commit with a
// /timeline/watch long-poll (which returns once the commit-driven
// maintenance has applied that commit) and then reading the warm
// head-relative POST /timeline answer. The other workers hold long-poll
// subscriptions throughout. Each recorded latency sample is one full
// commit → watch-delivery → warm-answer cycle — the number that must stay
// flat as the chain grows, because maintenance is one engine step per
// commit, never a re-walk.
func driveLiveLoad(base string, concurrency int, duration time.Duration) (LoadtestResult, error) {
	if concurrency < 1 {
		concurrency = 1
	}
	snaps, err := charles.ChainDataset(charles.ChainConfig{N: 120, Steps: 400, Seed: 2})
	if err != nil {
		return LoadtestResult{}, err
	}
	csvs := make([]string, len(snaps))
	for i, snap := range snaps {
		var buf bytes.Buffer
		if err := csvio.Write(&buf, snap); err != nil {
			return LoadtestResult{}, err
		}
		csvs[i] = buf.String()
	}

	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        concurrency * 2,
			MaxIdleConnsPerHost: concurrency * 2,
		},
		Timeout: 60 * time.Second,
	}
	var shed, err4xx, err5xx, total atomic.Int64
	classify := func(code int) {
		total.Add(1)
		switch {
		case code == http.StatusTooManyRequests:
			shed.Add(1)
		case code >= 500:
			err5xx.Add(1)
		case code >= 400:
			err4xx.Add(1)
		}
	}

	// Passive watchers: they hold long-poll subscriptions for the whole run,
	// advancing since= as events arrive. Cancelled (not just signalled) at
	// the end, so a poll blocked waiting for a commit that will never come
	// does not stall the shutdown.
	watchCtx, cancelWatch := context.WithCancel(context.Background())
	defer cancelWatch()
	var watchWG sync.WaitGroup
	for w := 0; w < concurrency-1; w++ {
		watchWG.Add(1)
		go func() {
			defer watchWG.Done()
			since := ""
			for watchCtx.Err() == nil {
				req, err := http.NewRequestWithContext(watchCtx, http.MethodGet,
					base+"/timeline/watch?since="+since, nil)
				if err != nil {
					return
				}
				resp, err := client.Do(req)
				if err != nil {
					return // cancelled or connection cut at shutdown
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				classify(resp.StatusCode)
				var pr struct {
					Head string `json:"head"`
				}
				if json.Unmarshal(body, &pr) == nil && pr.Head != "" {
					since = pr.Head
				}
			}
		}()
	}

	var cycles []time.Duration
	parent := ""
	deadline := time.Now().Add(duration)
	for i := 0; time.Now().Before(deadline) && i < len(csvs); i++ {
		t0 := time.Now()
		body, err := json.Marshal(map[string]any{
			"csv": csvs[i], "key": []string{"id"}, "parent": parent, "message": "live step",
		})
		if err != nil {
			return LoadtestResult{}, err
		}
		resp, err := client.Post(base+"/versions", "application/json", bytes.NewReader(body))
		if err != nil {
			return LoadtestResult{}, fmt.Errorf("commit %d: %w", i, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		classify(resp.StatusCode)
		if resp.StatusCode != http.StatusOK {
			return LoadtestResult{}, fmt.Errorf("commit %d: status %d: %s", i, resp.StatusCode, data)
		}
		var v store.Version
		if err := json.Unmarshal(data, &v); err != nil {
			return LoadtestResult{}, err
		}
		if parent != "" {
			// Ride the commit: this returns once the live maintenance has
			// moved the head past the previous version.
			wresp, err := client.Get(base + "/timeline/watch?since=" + parent)
			if err != nil {
				return LoadtestResult{}, fmt.Errorf("watch after commit %d: %w", i, err)
			}
			_, _ = io.Copy(io.Discard, wresp.Body)
			wresp.Body.Close()
			classify(wresp.StatusCode)
			// The warm head-relative answer: the live shard's, built from
			// its maintained timeline — no chain walk.
			tresp, err := client.Post(base+"/timeline", "application/json", bytes.NewReader([]byte("{}")))
			if err != nil {
				return LoadtestResult{}, fmt.Errorf("timeline after commit %d: %w", i, err)
			}
			_, _ = io.Copy(io.Discard, tresp.Body)
			tresp.Body.Close()
			classify(tresp.StatusCode)
			cycles = append(cycles, time.Since(t0))
		}
		parent = v.ID
	}
	cancelWatch()
	watchWG.Wait()

	sort.Slice(cycles, func(i, j int) bool { return cycles[i] < cycles[j] })
	pct := func(p float64) float64 {
		if len(cycles) == 0 {
			return 0
		}
		idx := int(p * float64(len(cycles)-1))
		return float64(cycles[idx]) / float64(time.Millisecond)
	}
	return LoadtestResult{
		Concurrency: concurrency,
		DurationSec: duration.Seconds(),
		Requests:    total.Load(),
		RPS:         float64(len(cycles)) / duration.Seconds(),
		P50MS:       pct(0.50),
		P95MS:       pct(0.95),
		P99MS:       pct(0.99),
		Shed:        shed.Load(),
		Err4xx:      err4xx.Load(),
		Err5xx:      err5xx.Load(),
	}, nil
}

// checkLiveMetrics asserts the live run's maintenance is visible in the
// scrape: commits were notified and applied incrementally.
func checkLiveMetrics(base string) error {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	shard := map[string]string{"shard": "default/default"}
	if v, ok := metrics.Value(body, "charles_commit_notifications_total", shard); !ok || v <= 0 {
		return fmt.Errorf("charles_commit_notifications_total missing or zero (%v, %v)", v, ok)
	}
	if v, ok := metrics.Value(body, "charles_timeline_maintenance_total",
		map[string]string{"shard": "default/default", "mode": "extend"}); !ok || v <= 0 {
		return fmt.Errorf("charles_timeline_maintenance_total{mode=extend} missing or zero (%v, %v): commits were not applied incrementally", v, ok)
	}
	return nil
}

// lintMetrics scrapes GET /metrics and validates the Prometheus text
// exposition output.
func lintMetrics(base string) error {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	if err := metrics.Lint(body); err != nil {
		return err
	}
	// The traffic just sent must be visible in the scrape.
	if v, ok := metrics.Value(body, "charles_http_requests_total",
		map[string]string{"route": "/versions", "shard": "default/default", "class": "2xx"}); !ok || v <= 0 {
		return fmt.Errorf("charles_http_requests_total for /versions missing or zero (%v, %v)", v, ok)
	}
	return nil
}

// recordLoadtest merges one loadtest result into the BENCH json file,
// leaving the micro-benchmark sections untouched.
func recordLoadtest(path, name string, res LoadtestResult) error {
	out := BaselineFile{Current: map[string]BenchResult{}}
	if prev, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(prev, &out); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else {
		out.Recorded = time.Now().UTC().Format("2006-01-02")
		out.Go = runtime.Version()
	}
	if out.Loadtest == nil {
		out.Loadtest = map[string]LoadtestResult{}
	}
	out.Loadtest[name] = res
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}
