// Command servebench is the repository benchmark: it starts charles-serve
// in-process on a fresh on-disk store, drives one named workload over
// loopback as a closed loop, checks every answer, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics of a
// traced replay of the same op sequence) as one JSON object on the last
// line of its output.
//
// Usage:
//
//	servebench --workload explore|live|read --seed N --seconds S --trace 0|1
//
// Run it from the repository root through run.sh, which builds it first.
// The README beside this file describes the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: explore, live or read")
	seed := fs.Int64("seed", 1, "seed the inputs and op sequence derive from")
	seconds := fs.Int("seconds", 25, "how long the timed phase is sized to run")
	trace := fs.Int("trace", 0, "1 = report the per-layer metrics of a traced replay instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sz, err := defaultSizes(*name, *seconds)
	if err != nil || fs.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: servebench --workload explore|live|read --seed N --seconds S --trace 0|1")
		return 2
	}
	cfg := runConfig{name: *name, seed: *seed, sz: sz, traced: *trace == 1, root: ".bench_build"}
	res, err := execute(context.Background(), cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// Nominal op rates on a 2-vCPU x86 machine. A run's op count is --seconds
// times this rate, fixed before the run starts, so that the timed phase
// lasts about --seconds and every run does the same work.
const (
	exploreRate = 10.0
	liveRate    = 5.0
	readRate    = 240.0
)

// minOps keeps at least 10 samples beyond p90.
const minOps = 110

func defaultSizes(name string, seconds int) (sizes, error) {
	if seconds < 1 {
		return sizes{}, fmt.Errorf("seconds must be at least 1")
	}
	ops := func(rate float64) int { return max(minOps, int(rate*float64(seconds))) }
	switch name {
	case "explore":
		return sizes{rows: 1000, versions: 12, ops: ops(exploreRate), setups: 3, sample: 8}, nil
	case "live":
		return sizes{rows: 800, versions: 32, ops: ops(liveRate), setups: 3}, nil
	case "read":
		return sizes{rows: 500, versions: 256, churn: 5, ops: ops(readRate), setups: 3}, nil
	}
	return sizes{}, fmt.Errorf("unknown workload %q", name)
}

func newWorkload(name string, seed int64, sz sizes) (workload, error) {
	switch name {
	case "explore":
		return newExplore(seed, sz)
	case "live":
		return newLive(seed, sz)
	case "read":
		return newRead(seed, sz)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

type runConfig struct {
	name   string
	seed   int64
	sz     sizes
	traced bool
	root   string // build-output directory the run may write under
	// wrap, when set, adjusts the workload before it runs; tests use it
	// to plant a wrong answer.
	wrap func(workload)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// report collects metrics and prints each with its unit and how it was
// measured.
type report struct {
	out     io.Writer
	metrics map[string]metricJSON
}

func (r *report) add(name string, v float64, unit, note string) {
	if math.IsNaN(v) {
		v = 0 // no successful op to take a percentile of; the run has failed
	}
	r.metrics[name] = metricJSON{Value: v, Unit: unit}
	fmt.Fprintf(r.out, "metric %-36s %14.6g %-6s %s\n", name, v, unit, note)
}

func execute(ctx context.Context, cfg runConfig, out io.Writer) (resultJSON, error) {
	w, err := newWorkload(cfg.name, cfg.seed, cfg.sz)
	if err != nil {
		return resultJSON{}, err
	}
	if cfg.wrap != nil {
		cfg.wrap(w)
	}
	work := filepath.Join(cfg.root, "work", fmt.Sprintf("%s-%d", cfg.name, os.Getpid()))
	defer os.RemoveAll(work)
	setups := cfg.sz.setups
	if cfg.traced {
		setups = 1 // set-up time is an end-to-end metric, not traced
	}

	// Set-up, repeated; the last instance goes on to the timed phase.
	var (
		in         *instance
		c          *client
		setupTimes []float64
		baseHeap   uint64
	)
	for k := 0; k < setups; k++ {
		dir, err := scratchDir(work, "store-")
		if err != nil {
			return resultJSON{}, err
		}
		baseHeap = liveHeapBytes()
		t0 := time.Now()
		if in, err = startInstance(dir); err != nil {
			return resultJSON{}, err
		}
		c = newClient(in.base)
		err = w.setup(ctx, c)
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if err != nil {
			c.close()
			return resultJSON{}, errors.Join(fmt.Errorf("set-up: %w", err), in.stop())
		}
		if k < setups-1 {
			c.close()
			if err := in.stop(); err != nil {
				return resultJSON{}, err
			}
			os.RemoveAll(dir)
		}
	}
	fsType := storeFS(in.dir)
	printRecord(out, cfg, setups, fsType)

	runtime.GC()
	w.begin(ctx, in)
	before, err := readCounters(ctx, in, c)
	if err != nil {
		c.close()
		return resultJSON{}, errors.Join(err, w.end(), in.stop())
	}
	tr := runOps(w.nops(), func(i int) (time.Duration, error) { return w.op(ctx, c, i) }, w.class)
	after, err := readCounters(ctx, in, c)
	endErr := w.end()
	heap := float64(liveHeapBytes()) - float64(baseHeap)
	c.close()
	stopErr := in.stop()
	if err = errors.Join(err, stopErr); err != nil {
		return resultJSON{}, err
	}
	var problems []string
	if endErr != nil {
		problems = append(problems, endErr.Error())
	}
	if err := w.finish(); err != nil {
		problems = append(problems, "post-run check: "+err.Error())
	}

	res := resultJSON{Attempted: tr.attempted, Failed: tr.failed, Metrics: map[string]metricJSON{}}
	rep := &report{out: out, metrics: res.Metrics}
	n := len(tr.latMS)
	fmt.Fprintf(out, "ops: %d attempted, %d failed, %d successful in %.3fs\n", tr.attempted, tr.failed, n, tr.wall.Seconds())
	tr.printClasses(out)
	for _, f := range tr.failures {
		fmt.Fprintln(out, "failed:", f)
	}
	for _, p := range problems {
		fmt.Fprintln(out, "failed:", p)
	}
	if !cfg.traced {
		rep.add("setup_s", percentile(setupTimes, 50), "s", fmt.Sprintf("median of %d set-ups %s", len(setupTimes), fmtList(setupTimes, "%.3f")))
		rep.add("ops_per_s", float64(n)/tr.wall.Seconds(), "1/s", fmt.Sprintf("%d successful ops / %.3fs", n, tr.wall.Seconds()))
		rep.add("p50_ms", percentile(tr.latMS, 50), "ms", fmt.Sprintf("n=%d, %d failed", n, tr.failed))
		rep.add("p90_ms", percentile(tr.latMS, 90), "ms", fmt.Sprintf("n=%d, %d beyond, %d failed", n, beyond(n, 90), tr.failed))
		rep.add("heap_mb", heap/(1<<20), "MiB", "live heap after forced GC at the end of the timed phase, less the live heap before set-up")
	} else {
		if err := traceLayers(ctx, cfg, w, work, before, after, tr, rep, out); err != nil {
			return resultJSON{}, err
		}
	}
	res.Correct = tr.failed == 0 && len(problems) == 0 && n > 0
	return res, nil
}

func fmtList(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// printRecord prints the run record: what was run, with which seed, on
// which machine and filesystem.
func printRecord(out io.Writer, cfg runConfig, setups int, fsType string) {
	fmt.Fprintf(out, "run: workload=%s seed=%d trace=%v ops=%d rows=%d versions=%d setups=%d\n",
		cfg.name, cfg.seed, cfg.traced, cfg.sz.ops, cfg.sz.rows, cfg.sz.versions, setups)
	fmt.Fprintf(out, "machine: nproc=%d gomaxprocs=%d go=%s cpu=%q store_fs=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), fsType)
}

// cpuModel reads the processor's model name from the kernel.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
