package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"charles/internal/core"
	"charles/internal/serve"
	"charles/internal/store"
)

// instance is one in-process charles-serve, started the way `charles-serve
// -dir` starts it: a store opened on a fresh on-disk directory behind the
// default serving config, answering the legacy routes on a loopback port.
type instance struct {
	dir    string
	st     *store.Store
	srv    *serve.Server
	base   string
	cancel context.CancelFunc
	done   chan error
}

func startInstance(dir string) (*instance, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := serve.NewServerWith(st, serve.Config{})
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve.Serve(ctx, hs, ln, 15*time.Second) }()
	return &instance{dir: dir, st: st, srv: srv, base: "http://" + ln.Addr().String(), cancel: cancel, done: done}, nil
}

// stop drains the server, waits for it to exit and closes the store.
func (in *instance) stop() error {
	in.cancel()
	err := <-in.done
	return errors.Join(err, in.st.Close())
}

// client is one closed-loop HTTP client holding a single keep-alive
// connection to the instance.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, tr: tr, base: base}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// httpError is a non-2xx answer.
type httpError struct {
	method, path string
	status       int
	body         string
}

func (e *httpError) Error() string {
	body := e.body
	if len(body) > 200 {
		body = body[:200] + "..."
	}
	return fmt.Sprintf("%s %s: status %d: %s", e.method, e.path, e.status, body)
}

// do sends one request and returns the whole response body; any transport
// error or non-2xx status is an error.
func (c *client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	return c.doInto(ctx, nil, method, path, body)
}

// doInto is do reading the body into dst, reset first, so a client that
// reads large answers over and over reuses one buffer; the returned bytes
// alias dst. A nil dst allocates.
func (c *client) doInto(ctx context.Context, dst *bytes.Buffer, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if dst == nil {
		dst = new(bytes.Buffer)
	}
	dst.Reset()
	if _, err := dst.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	data := dst.Bytes()
	if resp.StatusCode/100 != 2 {
		return nil, &httpError{method: method, path: path, status: resp.StatusCode, body: string(data)}
	}
	return data, nil
}

// counters is the program-side state read before and after the timed phase.
type counters struct {
	store       store.Stats
	serve       serve.Stats
	accel       uint64
	allocBytes  uint64
	gcCPU       float64
	totalCPU    float64
	metricsText string
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readCounters(ctx context.Context, in *instance, c *client) (counters, error) {
	cs, is := core.AccelBuilds()
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	text, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return counters{}, err
	}
	return counters{
		store:       in.st.Stats(),
		serve:       in.srv.Stats(),
		accel:       cs + is,
		allocBytes:  s[0].Value.Uint64(),
		gcCPU:       s[1].Value.Float64(),
		totalCPU:    s[2].Value.Float64(),
		metricsText: string(text),
	}, nil
}

// liveHeapBytes forces a collection and reports the live heap. It collects
// twice: sync.Pool caches (encoding/json's encoder buffers among them)
// survive one collection, and counting them made the figure depend on when
// the GC last ran.
func liveHeapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// scratchDir makes a fresh directory under the run's work directory.
func scratchDir(work, prefix string) (string, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(work, prefix)
}

// timedResult is what one timed phase measured.
type timedResult struct {
	latMS     []float64 // successful ops only
	classOf   []int     // index into classes of each successful op
	classes   []string
	attempted int
	failed    int
	failures  []string // the first few failure messages
	wall      time.Duration
}

func (r *timedResult) fail(err error) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, err.Error())
	}
}

// runOps drives ops serially: a closed loop, the next op sent only after
// the previous one has been answered and checked. op returns the op's
// latency, which ends when its last answer has been read and leaves out
// the benchmark's own answer check.
func runOps(n int, op func(i int) (time.Duration, error), class func(i int) string) timedResult {
	res := timedResult{latMS: make([]float64, 0, n)}
	index := map[string]int{}
	start := time.Now()
	for i := 0; i < n; i++ {
		d, err := op(i)
		res.attempted++
		if err != nil {
			res.fail(fmt.Errorf("op %d: %w", i, err))
			continue
		}
		res.latMS = append(res.latMS, float64(d)/float64(time.Millisecond))
		cl := class(i)
		k, ok := index[cl]
		if !ok {
			k = len(res.classes)
			index[cl] = k
			res.classes = append(res.classes, cl)
		}
		res.classOf = append(res.classOf, k)
	}
	res.wall = time.Since(start)
	return res
}

// printClasses prints the latency of each op class.
func (r *timedResult) printClasses(out io.Writer) {
	by := make([][]float64, len(r.classes))
	for i, k := range r.classOf {
		by[k] = append(by[k], r.latMS[i])
	}
	order := make([]int, len(r.classes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return r.classes[order[a]] < r.classes[order[b]] })
	for _, k := range order {
		fmt.Fprintf(out, "class %-22s n=%-5d p50 %9.3f ms  p90 %9.3f ms\n", r.classes[k], len(by[k]), percentile(by[k], 50), percentile(by[k], 90))
	}
}
