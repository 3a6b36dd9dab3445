package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"charles/internal/microbench"
)

// BenchResult is one measured micro-benchmark.
type BenchResult struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	N           int   `json:"n"` // iterations measured
}

// BaselineFile is the schema of BENCH_baseline.json: the pre-change numbers
// of the PR that introduced the vectorized evaluation layer (kept for the
// record) and the most recent measurement.
type BaselineFile struct {
	Recorded  string                    `json:"recorded"`
	Go        string                    `json:"go"`
	Note      string                    `json:"note,omitempty"`
	PreChange map[string]BenchResult    `json:"pre_change,omitempty"`
	Current   map[string]BenchResult    `json:"current"`
	Loadtest  map[string]LoadtestResult `json:"loadtest,omitempty"`
}

// writeBaseline measures the micro-benchmarks (internal/microbench, the
// same bodies as the root package's Benchmark* functions) and writes (or
// updates) the baseline file, preserving an existing pre_change section.
func writeBaseline(path string) error {
	// Fail on an unwritable destination before spending ~30s measuring.
	probe, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	probe.Close()
	out := BaselineFile{
		Recorded: time.Now().UTC().Format("2006-01-02"),
		Go:       runtime.Version(),
		Current:  map[string]BenchResult{},
	}
	if prev, err := os.ReadFile(path); err == nil {
		var old BaselineFile
		if err := json.Unmarshal(prev, &old); err == nil {
			out.PreChange = old.PreChange
			out.Note = old.Note
			out.Loadtest = old.Loadtest
		}
	}

	for _, bench := range microbench.List(context.Background()) {
		fmt.Fprintf(os.Stderr, "measuring %s...\n", bench.Name)
		r := testing.Benchmark(bench.Fn)
		out.Current[bench.Name] = BenchResult{
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
