// Package history extends ChARLES from a snapshot *pair* to a snapshot
// *sequence*: given versions D₁ … Dₙ of an evolving table, it summarizes
// each consecutive step and reports how the recovered policy drifts over
// time — the "temporal changes" framing of the paper applied across a whole
// version history (cf. Bleifuß et al., "Exploring Change", PVLDB 2018,
// which the related-work section positions ChARLES against).
package history

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"charles/internal/core"
	"charles/internal/diff"
	"charles/internal/model"
	"charles/internal/store"
	"charles/internal/table"
)

// Step is the summarization of one consecutive snapshot pair.
type Step struct {
	// From and To index the snapshot sequence (step i: snapshots[i] →
	// snapshots[i+1]).
	From, To int
	// Ranked holds the step's summaries (empty only on no-change steps,
	// which instead set NoChange).
	Ranked []core.Ranked
	// NoChange marks steps where the target attribute did not move.
	NoChange bool
}

// Top returns the step's best summary (nil for no-change steps).
func (s Step) Top() *model.Summary {
	if len(s.Ranked) == 0 {
		return nil
	}
	return s.Ranked[0].Summary
}

// Timeline is the summarized evolution of one target attribute across a
// snapshot sequence.
type Timeline struct {
	Target string
	Steps  []Step
}

// ChangedBy reports whether a step before k summarized the attribute, that
// is, whether it changed by step k. A walk of the first k steps over every
// changed attribute lists exactly the attributes for which it holds.
func (tl *Timeline) ChangedBy(k int) bool {
	for _, s := range tl.Steps[:k] {
		if len(s.Ranked) > 0 || !s.NoChange {
			return true
		}
	}
	return false
}

// MultiTimeline is the summarized evolution of every changed numeric
// attribute across a snapshot sequence — the batch form of Timeline.
type MultiTimeline struct {
	// Attrs lists the summarized attributes in schema order (the union of
	// per-step changed numeric attributes).
	Attrs []string
	// Timelines maps each summarized attribute to its per-step timeline.
	// Steps where the attribute did not change are marked NoChange.
	Timelines map[string]*Timeline
	// Skipped maps changed non-numeric attributes to the reason they were
	// not summarized (merged across steps).
	Skipped map[string]string
	// Steps is the number of consecutive snapshot pairs (len(snapshots)−1).
	Steps int
}

// Memo supplies the engine run of one (step, target) cell of a walk: given
// step i (snapshots[i] → snapshots[i+1]) and the target's engine options, it
// returns a remembered ranking or calls run, whose result it may remember.
// run must be called, if at all, before the memo returns. A nil Memo always
// calls run.
type Memo func(i int, opts core.Options, run func() ([]core.Ranked, error)) ([]core.Ranked, error)

// Walk is the one step loop behind every timeline: it summarizes each
// consecutive pair of snapshots — every changed numeric attribute, or only
// target when it is non-empty — and routes every (step, target) engine run
// through memo (nil runs the engine directly). All snapshots must share the
// schema and entity set of the first. A step aligns its pair once and
// builds the pair's PairContext on its first engine run, so every target of
// a pair shares one atom cache and split index, and a step the memo answers
// entirely builds none. A target that did not move on a step is marked
// NoChange there without an engine run (and carries no Ranked entry).
//
// Steps fan out over a pool bounded by base.Workers (0 = GOMAXPROCS); when
// the pool is parallel each engine run is single-threaded, so total
// concurrency stays at the bound rather than squaring it. The result is
// bit-identical to the sequential per-pair, per-target loop: steps are
// independent and merged in step order, and the engine is deterministic and
// independent of its worker count. A cancelled or expired ctx stops the
// pool from dispatching further steps and returns the context's error.
//
// A non-empty target must be a numeric, non-key attribute: a misspelled,
// categorical or key attribute never moves as a numeric target, and must
// not read as a plausible all-no-change timeline.
func Walk(ctx context.Context, snapshots []*table.Table, target string, base core.Options, memo Memo) (*MultiTimeline, error) {
	results, err := walk(ctx, snapshots, target, base, memo)
	if err != nil {
		return nil, err
	}
	return mergeSteps(snapshots[0], target, results), nil
}

// walk runs Walk's step loop and returns the per-step results unmerged (the
// maintainer keeps them to extend later).
func walk(ctx context.Context, snapshots []*table.Table, target string, base core.Options, memo Memo) ([]*core.MultiResult, error) {
	if len(snapshots) < 2 {
		return nil, fmt.Errorf("history: need at least 2 snapshots, got %d", len(snapshots))
	}
	if target != "" {
		if err := checkTarget(snapshots[0], target); err != nil {
			return nil, err
		}
	}
	results := make([]*core.MultiResult, len(snapshots)-1)
	if err := forEachStep(ctx, len(results), base, func(i int, engineBase core.Options) error {
		var err error
		results[i], err = summarizeStep(i, snapshots[i], snapshots[i+1], target, engineBase, memo)
		return err
	}); err != nil {
		return nil, err
	}
	return results, nil
}

// checkTarget validates an explicit timeline target against the chain's
// first snapshot (the serve layer answers the same errors with a 400).
func checkTarget(first *table.Table, target string) error {
	col, err := first.Column(target)
	if err != nil || slices.Contains(first.Key(), target) {
		return fmt.Errorf("history: unknown target attribute %q", target)
	}
	if !col.Type.Numeric() {
		return fmt.Errorf("history: target attribute %q is not numeric (categorical changes cannot be summarized)", target)
	}
	return nil
}

// MaterializeChainContext checks the version ids out of st in order. The
// store rebuilds each version from its nearest cached ancestor, so a cold
// root → head walk applies one delta and parses once per version, and a
// warm walk is served from the table cache without parsing. The walk checks
// ctx before each version, so a caller abandoning a long chain stops paying
// for checkouts it will never read.
func MaterializeChainContext(ctx context.Context, st *store.Store, ids []string) ([]*table.Table, error) {
	out := make([]*table.Table, len(ids))
	for i, id := range ids {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t, err := st.Checkout(id)
		if err != nil {
			return nil, fmt.Errorf("history: version %s: %w", id, err)
		}
		out[i] = t
	}
	return out, nil
}

// forEachStep runs fn for every step index on a pool bounded by
// base.Workers (≤0 means GOMAXPROCS, clamped to the step count) and returns
// the earliest failed step's error — deterministic regardless of
// scheduling. The engine options handed to fn have their candidate-worker
// count collapsed to 1 whenever the step pool itself is parallel, so total
// concurrency stays at the configured bound instead of squaring it; the
// engine's output does not depend on its worker count, so this only bounds
// concurrency.
//
// Cancellation is observed at the pool gate: a step that has not yet
// acquired a worker slot when ctx ends records the context's error instead
// of running. A context error outranks step errors in the return value —
// once the caller has given up, per-step failures are noise.
func forEachStep(ctx context.Context, steps int, base core.Options, fn func(i int, engineBase core.Options) error) error {
	workers := base.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > steps {
		workers = steps
	}
	engineBase := base
	if workers > 1 {
		engineBase.Workers = 1
	}
	errs := make([]error, steps)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < steps; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				errs[i] = ctx.Err()
				return
			}
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			errs[i] = fn(i, engineBase)
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("history: step %d→%d: %w", i, i+1, err)
		}
	}
	return nil
}

// summarizeStep aligns snapshots i → i+1 once and summarizes target on the
// pair — every changed numeric attribute when target is empty — routing
// each engine run through memo. The pair's PairContext is built on the
// step's first engine run; an explicit condition pool narrows its split
// index to just those attributes.
func summarizeStep(i int, src, tgt *table.Table, target string, base core.Options, memo Memo) (*core.MultiResult, error) {
	a, err := diff.Align(src, tgt)
	if err != nil {
		return nil, err
	}
	var pc *core.PairContext
	run := func(opts core.Options) ([]core.Ranked, error) {
		engine := func() ([]core.Ranked, error) {
			if pc == nil {
				var err error
				if pc, err = core.NewPairContext(a, base.CondAttrs...); err != nil {
					return nil, err
				}
			}
			return pc.Summarize(opts)
		}
		if memo == nil {
			return engine()
		}
		return memo(i, opts, engine)
	}
	if target == "" {
		return core.SummarizeAllWith(a, base, run)
	}
	mask, err := a.ChangedMask(target, core.ChangeTol)
	if err != nil {
		return nil, err
	}
	res := &core.MultiResult{ByAttr: map[string][]core.Ranked{}, Skipped: map[string]string{}}
	if !slices.Contains(mask, true) {
		return res, nil
	}
	opts := base
	opts.Target = target
	ranked, err := run(opts)
	if err != nil {
		return nil, err
	}
	res.Attrs = []string{target}
	res.ByAttr[target] = ranked
	return res, nil
}

// mergeSteps assembles per-attribute timelines from the per-step results.
// Attributes follow schema order: every attribute some step summarized,
// plus target (when set) even if it never moved. An attribute absent from a
// step's result (it did not change there) becomes a NoChange step.
func mergeSteps(first *table.Table, target string, results []*core.MultiResult) *MultiTimeline {
	mt := &MultiTimeline{
		Timelines: map[string]*Timeline{},
		Skipped:   map[string]string{},
		Steps:     len(results),
	}
	for _, f := range first.Schema() {
		attr := f.Name
		active := attr == target
		for _, res := range results {
			if _, ok := res.ByAttr[attr]; ok {
				active = true
				break
			}
		}
		if !active {
			continue
		}
		tl := &Timeline{Target: attr}
		for i, res := range results {
			step := Step{From: i, To: i + 1}
			if ranked, ok := res.ByAttr[attr]; ok {
				step.Ranked = ranked
				if len(ranked) > 0 && ranked[0].NoChange {
					step.NoChange = true
				}
			} else {
				step.NoChange = true
			}
			tl.Steps = append(tl.Steps, step)
		}
		mt.Attrs = append(mt.Attrs, attr)
		mt.Timelines[attr] = tl
	}
	for _, res := range results {
		for attr, why := range res.Skipped {
			mt.Skipped[attr] = why
		}
	}
	return mt
}

// Render prints every attribute's timeline, in schema order, followed by the
// skipped attributes.
func (mt *MultiTimeline) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "evolution of %d attribute(s) across %d steps\n", len(mt.Attrs), mt.Steps)
	for _, attr := range mt.Attrs {
		fmt.Fprintf(&b, "\n=== %s ===\n", attr)
		b.WriteString(mt.Timelines[attr].Render())
	}
	if len(mt.Skipped) > 0 {
		b.WriteString("\nskipped:\n")
		for _, attr := range sortedKeys(mt.Skipped) {
			fmt.Fprintf(&b, "  %s: %s\n", attr, mt.Skipped[attr])
		}
	}
	return b.String()
}

// sortedKeys returns the map's keys in lexicographic order (deterministic
// rendering of the skipped set).
func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Drift describes how a policy changed between two consecutive steps.
type Drift struct {
	StepA, StepB int
	// SamePartitioning reports whether both steps' top summaries induce the
	// same partition structure (condition fingerprints match pairwise).
	SamePartitioning bool
	// Note summarizes the relationship in one line.
	Note string
}

// Drifts returns DriftAt of every pair of adjacent steps, in step order.
func (tl *Timeline) Drifts() []Drift {
	var out []Drift
	for i := 0; i+1 < len(tl.Steps); i++ {
		out = append(out, tl.DriftAt(i))
	}
	return out
}

// DriftAt compares the top summary of step i against step i+1's: stable
// policies (same conditions, same constants) read as "policy held", same
// conditions with new constants read as "rates changed", and different
// conditions read as "policy restructured". It reads those two steps only.
func (tl *Timeline) DriftAt(i int) Drift {
	a, b := tl.Steps[i], tl.Steps[i+1]
	d := Drift{StepA: i, StepB: i + 1}
	switch {
	case a.NoChange && b.NoChange:
		d.SamePartitioning = true
		d.Note = "no change in either step"
	case a.NoChange != b.NoChange:
		d.Note = "change activity toggled"
	default:
		sa, sb := a.Top(), b.Top()
		// A change step can come back with nothing ranked (an engine run
		// whose every candidate was filtered); without a summary there is
		// no policy to compare, so say so instead of dereferencing nil.
		if sa == nil || sb == nil {
			d.Note = "no summary recovered"
			break
		}
		d.SamePartitioning = samePartitioning(sa, sb)
		switch {
		case sa.Fingerprint() == sb.Fingerprint():
			d.Note = "policy held exactly"
		case d.SamePartitioning:
			d.Note = "same partitions, constants changed"
		default:
			d.Note = "policy restructured"
		}
	}
	return d
}

// samePartitioning compares condition fingerprints pairwise (order-free).
func samePartitioning(a, b *model.Summary) bool {
	if a.Size() != b.Size() {
		return false
	}
	seen := map[string]int{}
	for _, ct := range a.CTs {
		seen[ct.Cond.Fingerprint()]++
	}
	for _, ct := range b.CTs {
		seen[ct.Cond.Fingerprint()]--
	}
	for _, v := range seen {
		if v != 0 {
			return false
		}
	}
	return true
}

// Render prints the timeline: one block per step with its top summary.
func (tl *Timeline) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "evolution of %s across %d steps\n", tl.Target, len(tl.Steps))
	for _, s := range tl.Steps {
		fmt.Fprintf(&b, "\nstep %d → %d:\n", s.From, s.To)
		if s.NoChange {
			b.WriteString("  (no change)\n")
			continue
		}
		if len(s.Ranked) == 0 {
			b.WriteString("  (no summary recovered)\n")
			continue
		}
		top := s.Ranked[0]
		fmt.Fprintf(&b, "  score %.1f%%\n", top.Breakdown.Score*100)
		for _, ct := range top.Summary.CTs {
			fmt.Fprintf(&b, "  %s\n", ct)
		}
	}
	drifts := tl.Drifts()
	if len(drifts) > 0 {
		b.WriteString("\ndrift:\n")
		for _, d := range drifts {
			fmt.Fprintf(&b, "  step %d→%d vs %d→%d: %s\n", d.StepA, d.StepA+1, d.StepB, d.StepB+1, d.Note)
		}
	}
	return b.String()
}
