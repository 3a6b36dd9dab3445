// Package microbench defines each micro-benchmark of the pipeline stages
// once. The root package's Benchmark* functions and charles-bench -baseline
// (which records them in BENCH_baseline.json) both run this list, so the
// two can never drift apart.
package microbench

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"charles/internal/assist"
	"charles/internal/core"
	"charles/internal/diff"
	"charles/internal/gen"
	"charles/internal/history"
	"charles/internal/store"
	"charles/internal/table"
)

// Bench is one named micro-benchmark.
type Bench struct {
	Name string
	Fn   func(*testing.B)
}

// List returns every micro-benchmark, in the order charles-bench -baseline
// measures them. ctx bounds the timeline benchmarks' walks.
func List(ctx context.Context) []Bench {
	return []Bench{
		{"Summarize2k", summarize2k},
		{"SummarizeToy", summarizeToy},
		{"Align5k", align5k},
		{"SuggestAttributes", suggestAttributes},
		{"Timeline8x4", func(b *testing.B) { timeline8x4(ctx, b) }},
		{"LiveExtend10", func(b *testing.B) { liveExtend(ctx, b, 10) }},
		{"LiveExtend50", func(b *testing.B) { liveExtend(ctx, b, 50) }},
		{"StoreChain50", storeChain50},
		{"MaterializeChain50", func(b *testing.B) { materializeChain50(ctx, b) }},
		{"DiffChain50", diffChain50},
		{"DiffChain50Align", diffChain50Align},
		{"HubCommit16", hubCommit16},
	}
}

// loop times op b.N times, after whatever setup preceded it, and fails the
// benchmark on the first error.
func loop(b *testing.B, op func() error) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

// summarize2k times the engine on a 2 000-row planted dataset with fixed
// attribute pools — the per-candidate cost driver.
func summarize2k(b *testing.B) {
	d, err := gen.Planted(gen.PlantedConfig{N: 2000, Seed: 13, Rules: 3, RuleDepth: 2, UnchangedFrac: 0.3})
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultOptions(d.Target)
	opts.CondAttrs = d.CondAttrs
	opts.TranAttrs = d.TranAttrs
	loop(b, func() error { _, err := core.Summarize(d.Src, d.Tgt, opts); return err })
}

// summarizeToy times the end-to-end engine on the 9-row toy data (the
// latency a demo user experiences per click).
func summarizeToy(b *testing.B) {
	src, tgt := gen.Toy()
	opts := core.DefaultOptions("bonus")
	loop(b, func() error { _, err := core.Summarize(src, tgt, opts); return err })
}

// align5k times snapshot alignment alone (key index + row matching).
func align5k(b *testing.B) {
	d, err := gen.Montgomery(7, 5000)
	if err != nil {
		b.Fatal(err)
	}
	loop(b, func() error { _, err := diff.Align(d.Src, d.Tgt.Clone()); return err })
}

// suggestAttributes times the setup assistant on realistic data.
func suggestAttributes(b *testing.B) {
	d, err := gen.Montgomery(7, 5000)
	if err != nil {
		b.Fatal(err)
	}
	loop(b, func() error {
		a, err := diff.Align(d.Src, d.Tgt)
		if err == nil {
			_, err = assist.SuggestCondition(a, d.Target, core.ChangeTol)
		}
		if err == nil {
			_, err = assist.SuggestTransformation(a, d.Target, core.ChangeTol)
		}
		return err
	})
}

// timeline8x4 times the batch timeline workload: an 8-step chain with four
// evolving numeric attributes, steps fanned out over the worker pool and
// every pair's atom cache / split index shared across its targets.
func timeline8x4(ctx context.Context, b *testing.B) {
	snaps, err := gen.Chain(gen.ChainConfig{N: 300, Steps: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	base := core.DefaultOptions("")
	base.CondAttrs = []string{"dept", "grade"}
	loop(b, func() error {
		mt, err := history.Walk(ctx, snaps, "", base, nil)
		if err == nil && len(mt.Attrs) != 4 {
			err = fmt.Errorf("attrs = %v", mt.Attrs)
		}
		return err
	})
}

// liveExtend seeds an incrementally maintained timeline over a chain of the
// given length and measures advancing it by ONE new commit — the per-commit
// cost of live maintenance. LiveExtend10 vs LiveExtend50 is the
// incremental-maintenance acceptance check: the numbers should be close,
// because one step's cost does not grow with how long the chain already is
// (the from-scratch alternative is Timeline-shaped — linear in steps).
func liveExtend(ctx context.Context, b *testing.B, steps int) {
	snaps, err := gen.Chain(gen.ChainConfig{N: 300, Steps: steps, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]string, len(snaps))
	for i := range ids {
		ids[i] = fmt.Sprintf("v%03d", i)
	}
	base := core.DefaultOptions("")
	base.CondAttrs = []string{"dept", "grade"}
	m, err := history.NewTimelineMaintainerContext(ctx, snaps[:len(snaps)-1], ids[:len(ids)-1], base)
	if err != nil {
		b.Fatal(err)
	}
	last, lastID := snaps[len(snaps)-1], ids[len(ids)-1]
	loop(b, func() error { return m.Fork().Extend(lastID, last) })
}

// commitChain commits the 50-step chain into a store in dir ("" = memory
// only) whose table cache holds every version — with oneAnchor,
// delta-encoded all the way from the root — and returns its version ids,
// root → head.
func commitChain(b *testing.B, dir string, oneAnchor bool) (*store.Store, []string) {
	b.Helper()
	snaps, err := gen.Chain(gen.ChainConfig{N: 120, Steps: 50, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	opts := store.Options{TableCache: len(snaps)}
	if oneAnchor {
		opts.AnchorEvery = len(snaps) + 1
	}
	st, err := store.OpenWith(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]string, 0, len(snaps))
	parent := ""
	for _, snap := range snaps {
		v, err := st.Commit(snap, parent, "step")
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, v.ID)
		parent = v.ID
	}
	return st, ids
}

// storeChain50 times a full root→head checkout walk of a 50-step version
// chain stored delta-encoded: the timeline read pattern. The first
// iteration reconstructs and parses every version once; every later walk is
// served from the store's table LRU, so the steady state this records is
// the zero-parse clone path.
func storeChain50(b *testing.B) {
	st, ids := commitChain(b, "", false)
	loop(b, func() error {
		chain, err := st.Chain(ids[len(ids)-1])
		for i := 0; err == nil && i < len(chain); i++ {
			_, err = st.Checkout(chain[i].ID)
		}
		return err
	})
	b.StopTimer()
	if stats := st.Stats(); stats.Parses != int64(len(ids)) {
		b.Fatalf("walks parsed %d times, want exactly %d (first walk only)", stats.Parses, len(ids))
	}
}

// materializeChain50 times a cold timeline read, as a fresh charles-store
// timeline makes it: each op reopens an on-disk store holding the 50-step
// chain (an anchor every DefaultAnchorEvery versions) and materializes it
// root → head. The store rebuilds each blob from its parent's, so every
// version must be parsed exactly once.
func materializeChain50(ctx context.Context, b *testing.B) {
	dir := b.TempDir()
	st, ids := commitChain(b, dir, false)
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	loop(b, func() error {
		st, err := store.Open(dir)
		if err != nil {
			return err
		}
		defer st.Close()
		if _, err := history.MaterializeChainContext(ctx, st, ids); err != nil {
			return err
		}
		if parses := st.Stats().Parses; parses != int64(len(ids)) {
			return fmt.Errorf("walk parsed %d times, want %d (each version once)", parses, len(ids))
		}
		return nil
	})
}

// diffChainStore commits the 50-step chain with one anchor at the root and
// warms every cache with one pass over the adjacent pairs — the steady
// state both diff benchmarks measure.
func diffChainStore(b *testing.B) (*store.Store, []string) {
	b.Helper()
	st, ids := commitChain(b, "", true)
	for i := 0; i+1 < len(ids); i++ {
		if _, _, err := st.DiffResult(ids[i], ids[i+1], core.ChangeTol); err != nil {
			b.Fatalf("pair %d: %v", i, err)
		}
		if _, err := st.Checkout(ids[i+1]); err != nil {
			b.Fatal(err)
		}
	}
	return st, ids
}

// diffChain50 times warm change queries over every adjacent pair of a
// 50-step delta-encoded chain. A cold query aligns the two versions' cached
// tables, and the finished answer is memoized (versions are immutable, so
// it never goes stale); the warm steady state this records is the
// answer-cache path. Compare diffChain50Align, which aligns fresh checkouts
// for the identical queries with no answer cache.
func diffChain50(b *testing.B) {
	st, ids := diffChainStore(b)
	loop(b, func() error {
		for j := 0; j+1 < len(ids); j++ {
			res, _, err := st.DiffResult(ids[j], ids[j+1], core.ChangeTol)
			if err != nil {
				return err
			}
			if res.UpdateDistance == 0 {
				return fmt.Errorf("pair %d: empty diff", j)
			}
		}
		return nil
	})
}

// diffChain50Align answers exactly the queries of diffChain50 through the
// classic path: check both versions out (warm table-LRU clones) and align
// the full row sets.
func diffChain50Align(b *testing.B) {
	st, ids := diffChainStore(b)
	loop(b, func() error {
		for j := 0; j+1 < len(ids); j++ {
			src, err := st.Checkout(ids[j])
			if err != nil {
				return err
			}
			tgt, err := st.Checkout(ids[j+1])
			if err != nil {
				return err
			}
			res, err := diff.ResultFromPair(src, tgt, core.ChangeTol)
			if err != nil {
				return err
			}
			if res.UpdateDistance == 0 {
				return fmt.Errorf("pair %d: empty diff", j)
			}
		}
		return nil
	})
}

// hubCommit16 drives 16 goroutines, each committing a pre-generated 6-step
// chain into its own fresh dataset of one shared hub: per-shard locking
// keeps the 16 commit pipelines fully concurrent while every shard's caches
// charge the one shared memory budget.
func hubCommit16(b *testing.B) {
	const shards = 16
	chains := make([][]*table.Table, shards)
	for g := range chains {
		snaps, err := gen.Chain(gen.ChainConfig{N: 60, Steps: 6, Seed: int64(g + 1)})
		if err != nil {
			b.Fatal(err)
		}
		chains[g] = snaps
	}
	h, err := store.OpenHubWith("", store.HubOptions{MemoryBudget: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	iter := 0
	loop(b, func() error {
		iter++
		var wg sync.WaitGroup
		errs := make(chan error, shards)
		for g := 0; g < shards; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// A fresh dataset per goroutine per iteration: every commit
				// is real pack-building work, never a content-address dedup.
				ds := fmt.Sprintf("d%02d-%d", g, iter)
				parent := ""
				for _, snap := range chains[g] {
					v, err := h.Commit("bench", ds, snap, parent, "step")
					if err != nil {
						errs <- err
						return
					}
					parent = v.ID
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		return <-errs // nil when every commit succeeded
	})
}
