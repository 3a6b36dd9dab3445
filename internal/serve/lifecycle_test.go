package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"charles/internal/csvio"
	"charles/internal/store"
)

// commitLineage commits n single-numeric-column snapshots directly into st
// (salary moves every step, so a full timeline walk has exactly n-1 engine
// steps for exactly one target) and returns the version ids root→head.
func commitLineage(t *testing.T, st *store.Store, n int) []string {
	t.Helper()
	ids := make([]string, 0, n)
	parent := ""
	for i := 0; i < n; i++ {
		csv := fmt.Sprintf("name,dept,salary\nanne,eng,%d\nbob,eng,%d\ncara,hr,%d\n",
			1000+10*i, 2000+20*i, 3000+30*i)
		tb, err := csvio.Read(strings.NewReader(csv), csvio.Options{Key: []string{"name"}})
		if err != nil {
			t.Fatal(err)
		}
		v, err := st.Commit(tb, parent, fmt.Sprintf("v%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
		parent = v.ID
	}
	return ids
}

// TestClientCancelAbortsTimelineWalk is the serving half of the robustness
// acceptance: a client that disconnects mid-/timeline stops the walk — the
// step counter stops advancing instead of burning CPU on the remaining
// steps — and the limiter slot the request held is returned.
func TestClientCancelAbortsTimelineWalk(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	commitLineage(t, st, 40) // 39 steps x 15ms >> the cancellation latency
	srv := NewServerWith(st, Config{MaxInFlight: 1})
	var stepsRun atomic.Int64
	srv.stepHook = func() {
		stepsRun.Add(1)
		time.Sleep(15 * time.Millisecond)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/timeline", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	clientErr := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		clientErr <- err
	}()

	deadline := time.Now().Add(10 * time.Second)
	for stepsRun.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("timeline walk never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel() // client disconnects mid-walk
	if err := <-clientErr; err == nil {
		t.Fatal("cancelled client request reported success")
	}
	// The handler winds down and returns its limiter slot.
	for srv.ServingStats().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatal("handler still in flight after client cancel")
		}
		time.Sleep(time.Millisecond)
	}
	n := stepsRun.Load()
	if n >= 39 {
		t.Fatalf("walk ran all %d steps despite mid-walk cancellation", n)
	}
	// The counter has genuinely stopped, not merely paused.
	time.Sleep(100 * time.Millisecond)
	if again := stepsRun.Load(); again != n {
		t.Fatalf("steps still advancing after handler exit: %d -> %d", n, again)
	}
	// With MaxInFlight=1, the next request only succeeds if the slot came back.
	resp, body := get(t, ts.URL+"/versions")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after cancel: status %d: %s (limiter slot leaked?)", resp.StatusCode, body)
	}
}

// TestLimiterShedsAtCapacity pins the load-shedding contract: at
// MaxInFlight the next request is rejected immediately with 429 and a
// Retry-After header — never queued — while /healthz and /stats keep
// answering, and slots freed by finishing requests are reusable.
func TestLimiterShedsAtCapacity(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	commitLineage(t, st, 3)
	srv := NewServerWith(st, Config{MaxInFlight: 2, RetryAfter: 7 * time.Second})
	gate := make(chan struct{})
	started := make(chan struct{}, 4)
	srv.testDelay = func(*http.Request) {
		started <- struct{}{}
		<-gate
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Get(ts.URL + "/versions")
			if err != nil {
				done <- -1
				return
			}
			resp.Body.Close()
			done <- resp.StatusCode
		}()
	}
	<-started
	<-started // both slots held

	resp, body := get(t, ts.URL+"/versions")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want \"7\"", ra)
	}
	if !strings.Contains(string(body), "capacity") {
		t.Fatalf("shed body %q does not explain itself", body)
	}

	// Liveness and stats bypass the limiter — a busy box is not a dead box.
	resp, _ = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under saturation: %d", resp.StatusCode)
	}
	resp, body = get(t, ts.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats under saturation: %d", resp.StatusCode)
	}
	var stats struct {
		Serving ServingStats `json:"serving"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Serving.MaxInFlight != 2 || stats.Serving.InFlight != 2 || stats.Serving.Shed != 1 {
		t.Fatalf("serving stats %+v, want cap 2, 2 in flight, 1 shed", stats.Serving)
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Fatalf("blocked request finished with %d", code)
		}
	}
	// Freed slots serve again instead of shedding.
	srv.testDelay = nil
	resp, _ = get(t, ts.URL+"/versions")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after slots freed: %d", resp.StatusCode)
	}
	if got := srv.ServingStats().InFlight; got != 0 {
		t.Fatalf("in-flight count %d after all requests done (slot leak)", got)
	}
}

// TestRequestTimeoutReturns503 pins the per-request deadline: work that
// outlives RequestTimeout is cut off server-side and answered 503.
func TestRequestTimeoutReturns503(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	commitLineage(t, st, 3)
	srv := NewServerWith(st, Config{RequestTimeout: 50 * time.Millisecond})
	srv.stepHook = func() { time.Sleep(200 * time.Millisecond) } // outlive the deadline
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/timeline", map[string]any{})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request answered %d, want 503: %s", resp.StatusCode, body)
	}
}

// TestGracefulDrainUnderLoad is the -race soak of limiter + drain: a fleet
// of clients hammers a small server (low MaxInFlight, so shedding happens
// constantly) while SIGTERM-equivalent cancellation lands mid-flight. Every
// request that got a response got a well-defined one (200 served, 429
// shed), Serve returns clean within the drain deadline, and no limiter
// slot leaks. Long-lived /timeline/watch subscribers ride along: an SSE
// stream and a blocked long-poll each hold a limiter slot through the
// drain and must be told about it — a "drain" event then clean EOF for
// the stream, a 200 draining body for the poll — instead of being
// force-closed at the deadline with their slots still held.
func TestGracefulDrainUnderLoad(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	ids := commitLineage(t, st, 6)
	// 4 slots: the two watch subscribers pin one each for the whole soak,
	// leaving two for the hammering clients — still few enough to shed.
	srv := NewServerWith(st, Config{MaxInFlight: 4, RequestTimeout: 5 * time.Second})
	hs := &http.Server{Handler: srv}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveErr := make(chan error, 1)
	go func() { serveErr <- Serve(ctx, hs, ln, 5*time.Second) }()
	base := "http://" + ln.Addr().String()

	var mu sync.Mutex
	var codes []int
	var wg sync.WaitGroup
	stop := make(chan struct{})

	sseDrained := make(chan error, 1)
	go func() {
		resp, err := http.Get(base + "/timeline/watch")
		if err != nil {
			sseDrained <- err
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body) // until the handler exits
		if err != nil {
			sseDrained <- fmt.Errorf("SSE read: %w", err)
			return
		}
		if !bytes.Contains(data, []byte("event: drain")) {
			sseDrained <- fmt.Errorf("SSE stream ended without a drain event:\n%s", data)
			return
		}
		sseDrained <- nil
	}()
	pollDrained := make(chan error, 1)
	go func() {
		resp, err := http.Get(base + "/timeline/watch?since=" + ids[5])
		if err != nil {
			pollDrained <- err
			return
		}
		defer resp.Body.Close()
		var pr watchPollResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			pollDrained <- err
			return
		}
		if !pr.Draining {
			pollDrained <- fmt.Errorf("blocked poll answered %+v, want draining", pr)
			return
		}
		pollDrained <- nil
	}()
	// Both subscribers must be registered (and holding slots) before the
	// drain begins, or the test would not exercise their shutdown path —
	// and before the hammer starts, or a watcher could be shed with 429
	// while the hammering clients hold every slot.
	for deadline := time.Now().Add(10 * time.Second); srv.watchSubs.Load() < 2; {
		if time.Now().After(deadline) {
			t.Fatal("watch subscribers never registered")
		}
		time.Sleep(time.Millisecond)
	}

	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sumBody, _ := json.Marshal(summarizeRequest{From: ids[0], To: ids[1], Target: "salary"})
			for {
				select {
				case <-stop:
					return
				default:
				}
				var resp *http.Response
				var err error
				switch i % 3 {
				case 0:
					resp, err = http.Get(base + "/healthz")
				case 1:
					resp, err = http.Get(base + "/versions")
				default:
					resp, err = http.Post(base+"/summarize", "application/json", bytes.NewReader(sumBody))
				}
				if err != nil {
					// The drain has closed the listener; nothing more to send.
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				mu.Lock()
				codes = append(codes, resp.StatusCode)
				mu.Unlock()
			}
		}(i)
	}

	time.Sleep(100 * time.Millisecond) // let the load build
	cancel()                           // SIGTERM
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("drain returned %v, want clean shutdown", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("drain did not complete within the deadline")
	}
	close(stop)
	wg.Wait()

	if len(codes) == 0 {
		t.Fatal("soak produced no completed requests")
	}
	for _, c := range codes {
		if c != http.StatusOK && c != http.StatusTooManyRequests {
			t.Fatalf("request finished with %d during drain, want only 200/429", c)
		}
	}
	watchers := []struct {
		name string
		ch   chan error
	}{{"SSE watcher", sseDrained}, {"long-poll watcher", pollDrained}}
	for _, wtc := range watchers {
		select {
		case err := <-wtc.ch:
			if err != nil {
				t.Errorf("%s: %v", wtc.name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not finish after the drain", wtc.name)
		}
	}
	if got := srv.watchSubs.Load(); got != 0 {
		t.Fatalf("watch subscriber gauge %d after drain, want 0", got)
	}
	if got := srv.ServingStats().InFlight; got != 0 {
		t.Fatalf("in-flight count %d after drain (slot leak)", got)
	}
}
