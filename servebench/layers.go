package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// dominant is each workload's predicted dominant span, and which ops the
// prediction is about.
var dominant = map[string]struct {
	layer   string
	slowest bool // only the slowest decile of ops
}{
	"explore": {layer: "core.summarize"},
	"live":    {layer: "serve.encode"},
	"read":    {layer: "store.*.miss", slowest: true},
}

// traceLayers reports the per-layer metrics: counters read around the
// timed phase of the run that just ended, then two replays of the same op
// sequence, one recording spans and one not.
func traceLayers(ctx context.Context, cfg runConfig, w workload, work string, before, after counters, tr timedResult, rep *report, out io.Writer) error {
	nops := float64(tr.attempted)
	d := func(a, b int64) float64 { return float64(a - b) }
	hitRatio := func(hits, misses float64) float64 { return ratio(hits, hits+misses) }
	sa, sb := after.store, before.store

	replay := func(on bool) (replayStats, error) {
		dir, err := scratchDir(work, "replay-")
		if err != nil {
			return replayStats{}, err
		}
		defer os.RemoveAll(dir)
		runtime.GC()
		return w.replay(ctx, newTracer(on), dir)
	}
	off, err := replay(false)
	if err != nil {
		return fmt.Errorf("untraced replay: %w", err)
	}
	on, err := replay(true)
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	tracePath := filepath.Join(cfg.root, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.name, cfg.seed))
	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return err
	}
	if err := writeSpans(tracePath, on.spans); err != nil {
		return err
	}
	fmt.Fprintf(out, "trace: %d spans written to %s\n", len(on.spans), tracePath)

	lt := aggregate(on.spans, len(on.opNS))
	ms := func(name, note string, match func(string) bool) {
		rep.add(name, lt.layerMS(match), "ms", note)
	}
	ms("core.summarize_ms", "per op: core.SummarizeAligned", named("core.summarize"))
	rep.add("core.accel_builds_per_op", ratio(float64(after.accel-before.accel), nops), "count", "atom caches + split indexes built per timed op (core.AccelBuilds)")
	ms("core.step_ms", "per overview walk step: NewPairContext + PairContext.Summarize per changed target", named("core.step"))
	ms("history.materialize_ms", "per chain materialization: history.MaterializeChainContext", named("history.materialize"))
	ms("diff.align_ms", "per op: diff.Align", named("diff.align"))
	ms("history.extend_ms", "per cycle: TimelineMaintainer.ExtendFromSource", named("history.extend"))
	ms("history.seed_ms", "per maintainer seed: history.NewTimelineMaintainerContext", named("history.seed"))
	ms("history.timeline_ms", "per cycle: TimelineMaintainer.Timeline + Drifts", named("history.timeline"))
	rep.add("history.rebuilds", metricSum(after.metricsText, "charles_timeline_maintenance_total", `mode="rebuild"`)-
		metricSum(before.metricsText, "charles_timeline_maintenance_total", `mode="rebuild"`), "count",
		`charles_timeline_maintenance_total{mode="rebuild"} over the timed phase`)
	ms("store.commit_ms", "per op (else per set-up commit): Store.Commit", named("store.commit"))
	ms("csvio.read_ms", "per op (else per set-up commit): csvio.Read", named("csvio.read"))
	ms("vfs.io_ms", "per op (else per set-up call): file reads, writes, renames and fsyncs", prefixed("vfs."))
	rep.add("vfs.fsyncs_per_commit", ratio(float64(on.syncs), float64(on.commits)), "count", fmt.Sprintf("%d fsyncs / %d commits", on.syncs, on.commits))
	rep.add("vfs.bytes_written_per_logical_byte", ratio(float64(on.written), float64(on.logical)), "ratio", fmt.Sprintf("%d bytes written / %d canonical CSV bytes", on.written, on.logical))
	ms("store.checkout_ms", "per op: Store.Checkout", named("store.checkout"))
	ms("store.blob_hit_ms", "per op: Store.Blob served from the blob LRU", named("store.blob.hit"))
	ms("store.blob_miss_ms", "per op: Store.Blob rebuilt from packs", named("store.blob.miss"))
	ms("store.diff_miss_ms", "per op: Store.DiffResult computed", named("store.diff.miss"))
	ms("store.changes_miss_ms", "per op: Store.Changes decoded", named("store.changes.miss"))
	rep.add("vfs.reads_per_op", ratio(float64(on.opReads), nops), "count", fmt.Sprintf("%d pack/manifest reads over %d ops", on.opReads, int(nops)))
	rep.add("store.op_miss_ratio", ratio(float64(on.missOps), nops), "ratio", fmt.Sprintf("%d of %d ops missed a store cache", on.missOps, int(nops)))
	rep.add("store.pack_bytes_per_logical_byte", ratio(float64(sa.PackBytes), float64(sa.LogicalBytes)), "ratio", fmt.Sprintf("%d pack bytes / %d canonical CSV bytes", sa.PackBytes, sa.LogicalBytes))
	rep.add("diff.native_ratio", ratio(float64(on.natives), float64(on.diffs)), "ratio", fmt.Sprintf("%d of %d timed diffs answered from deltas", on.natives, on.diffs))
	rep.add("store.tables_hit_ratio", hitRatio(d(sa.Tables.Hits, sb.Tables.Hits), d(sa.Tables.Misses, sb.Tables.Misses)), "ratio", "decoded-table LRU over the timed phase")
	rep.add("store.blobs_hit_ratio", hitRatio(d(sa.Blobs.Hits, sb.Blobs.Hits), d(sa.Blobs.Misses, sb.Blobs.Misses)), "ratio", "blob LRU over the timed phase")
	rep.add("store.changes_hit_ratio", hitRatio(d(sa.Changes.Hits, sb.Changes.Hits), d(sa.Changes.Misses, sb.Changes.Misses)), "ratio", "change-set LRU over the timed phase")
	rep.add("store.results_hit_ratio", hitRatio(d(sa.Results.Hits, sb.Results.Hits), d(sa.Results.Misses, sb.Results.Misses)), "ratio", "diff-answer LRU over the timed phase")
	ms("serve.encode_ms", "per op: serve.EncodeRanked + JSON encoding", named("serve.encode"))
	opMS := make([]float64, len(on.opNS))
	for i, ns := range on.opNS {
		opMS[i] = float64(ns) / 1e6
	}
	rep.add("serve.overhead_ms", percentile(tr.latMS, 50)-percentile(opMS, 50), "ms", "untraced HTTP p50 less the traced replay's op p50")
	rep.add("serve.result_hit_ratio", hitRatio(float64(after.serve.Hits-before.serve.Hits), float64(after.serve.Misses-before.serve.Misses)), "ratio", "summarize result cache over the timed phase")
	rep.add("go.alloc_mb_per_op", float64(after.allocBytes-before.allocBytes)/(1<<20)/nops, "MiB", "heap allocated per timed op, whole process")
	rep.add("go.gc_cpu_frac", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU), "ratio", "GC share of process CPU time over the timed phase")
	offMS := make([]float64, len(off.opNS))
	for i, ns := range off.opNS {
		offMS[i] = float64(ns) / 1e6
	}
	onP50, offP50 := percentile(opMS, 50), percentile(offMS, 50)
	rep.add("trace.overhead_pct", 100*(onP50/offP50-1), "%",
		fmt.Sprintf("replay op p50 with spans %.3f ms vs without %.3f ms", onP50, offP50))
	// The two replays differ by run-to-run noise as well as by recording;
	// the recording cost alone, measured directly, bounds the latter.
	var opSpans int
	for _, sp := range on.spans {
		if sp.Op >= 0 {
			opSpans++
		}
	}
	perOp := ratio(float64(opSpans), float64(len(on.opNS)))
	cost := spanCost()
	fmt.Fprintf(out, "trace: %.1f spans per op at %v each: %.3f%% of the op p50\n",
		perOp, cost, 100*ratio(perOp*float64(cost)/1e6, offP50))

	// The predicted dominant layer, checked against the trace.
	pred := dominant[cfg.name]
	keep := func(int) bool { return true }
	scope := "all ops"
	if pred.slowest {
		cut := percentile(opMS, 90)
		keep = func(op int) bool { return opMS[op] >= cut }
		scope = fmt.Sprintf("slowest decile (op ≥ %.3f ms)", cut)
	}
	shares := groupMisses(lt.shares(keep))
	top := ""
	for name, s := range shares {
		if top == "" || s > shares[top] || (s == shares[top] && name < top) {
			top = name
		}
	}
	verdict := "confirmed"
	if top != pred.layer {
		verdict = "NOT confirmed"
	}
	fmt.Fprintf(out, "layers (%s, self-time share): %s\n", scope, describeShares(shares))
	fmt.Fprintf(out, "dominant layer: predicted %s, measured %s: %s\n", pred.layer, top, verdict)
	return nil
}

// spanCost measures what recording one span costs.
func spanCost() time.Duration {
	const n = 100000
	tr := newTracer(true)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tr.end(tr.begin("span"))
	}
	return time.Since(t0) / n
}

// groupMisses folds the store's cache-miss spans into one store.*.miss
// group, the layer the read prediction is about.
func groupMisses(sh map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for name, s := range sh {
		if strings.HasPrefix(name, "store.") && strings.HasSuffix(name, ".miss") {
			name = "store.*.miss"
		}
		out[name] += s
	}
	return out
}

// metricSum adds up the samples of one family in a Prometheus text
// exposition whose label set contains label.
func metricSum(text, family, label string) float64 {
	var sum float64
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family+"{") || !strings.Contains(line, label) {
			continue
		}
		fields := strings.Fields(line)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			sum += v
		}
	}
	return sum
}

// describeShares lists the largest shares, largest first.
func describeShares(sh map[string]float64) string {
	names := make([]string, 0, len(sh))
	for k := range sh {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		return sh[names[i]] > sh[names[j]] || (sh[names[i]] == sh[names[j]] && names[i] < names[j])
	})
	var parts []string
	for i, k := range names {
		if i == 6 {
			break
		}
		parts = append(parts, fmt.Sprintf("%s %.1f%%", k, 100*sh[k]))
	}
	return strings.Join(parts, ", ")
}
