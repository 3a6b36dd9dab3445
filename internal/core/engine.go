package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"charles/internal/assist"
	"charles/internal/diff"
	"charles/internal/dtree"
	"charles/internal/model"
	"charles/internal/predicate"
	"charles/internal/regress"
	"charles/internal/score"
	"charles/internal/table"
)

// Summarize runs the full ChARLES pipeline over a snapshot pair and returns
// the ranked change summaries for the configured target attribute.
func Summarize(src, tgt *table.Table, opts Options) ([]Ranked, error) {
	aligned, err := diff.Align(src, tgt)
	if err != nil {
		return nil, err
	}
	return SummarizeAligned(aligned, opts)
}

// SummarizeAligned is Summarize for pre-aligned snapshots (lets callers
// amortize alignment across target attributes).
func SummarizeAligned(a *diff.Aligned, opts Options) ([]Ranked, error) {
	if err := opts.validate(a.Source); err != nil {
		return nil, err
	}
	e, err := newEngine(a, opts, nil)
	if err != nil {
		return nil, err
	}
	return e.run()
}

// engine holds per-run state.
type engine struct {
	opts    Options
	a       *diff.Aligned
	oldVals []float64 // target values in source, by source row
	newVals []float64 // target values in target, aligned to source rows
	changed []bool    // per source row

	condAttrs []string
	tranAttrs []string

	changedRows []int // the fittable rows (see fittable), ascending

	// Shared per-run acceleration structures (immutable / internally
	// synchronized, so workers use them concurrently):
	pcache *predicate.Cache // compiled atom bitmaps, one per distinct atom
	dindex *dtree.Index     // precomputed split candidates per cond attribute
}

// newEngine prepares one run. With a non-nil ctx (built for the same
// aligned pair), the run borrows the context's atom cache and split index
// instead of constructing its own.
func newEngine(a *diff.Aligned, opts Options, ctx *PairContext) (*engine, error) {
	e := &engine{opts: opts, a: a}
	var err error
	e.oldVals, e.newVals, err = a.Delta(opts.Target)
	if err != nil {
		return nil, err
	}
	e.changed, err = a.ChangedMask(opts.Target, ChangeTol)
	if err != nil {
		return nil, err
	}
	for r := range e.changed {
		if e.fittable(r) {
			e.changedRows = append(e.changedRows, r)
		}
	}

	// Attribute pools: user-specified, else the setup assistant's shortlist.
	e.condAttrs = opts.CondAttrs
	if len(e.condAttrs) == 0 {
		sugs, err := assist.SuggestCondition(a, opts.Target, ChangeTol)
		if err != nil {
			return nil, err
		}
		// Backfill to a full pool of c attributes: marginal correlation
		// cannot see interaction attributes (the toy's exp only matters
		// inside edu = MS), so the threshold alone is too conservative.
		e.condAttrs = assist.Shortlist(sugs, assist.DefaultThreshold, opts.C, opts.C)
	}
	e.tranAttrs = opts.TranAttrs
	if len(e.tranAttrs) == 0 {
		sugs, err := assist.SuggestTransformation(a, opts.Target, ChangeTol)
		if err != nil {
			return nil, err
		}
		e.tranAttrs = assist.Shortlist(sugs, assist.DefaultThreshold, opts.T, opts.T)
	}
	if err := assist.Validate(a.Source, e.condAttrs, false); err != nil {
		return nil, err
	}
	if err := assist.Validate(a.Source, e.tranAttrs, true); err != nil {
		return nil, err
	}

	// Per-run acceleration: every distinct condition atom is materialized
	// as a bitmap exactly once, and split candidates (sorted numeric
	// distincts, category dictionaries) are derived once instead of per
	// (C, T, k) candidate. A PairContext hoists both one level further:
	// built once per aligned pair, shared by every target's run.
	if ctx != nil {
		e.pcache = ctx.pcache
		// The context's index covers every non-key column. An exotic pool
		// that names a key column would miss it — dtree.Build's covers()
		// fallback would then silently rebuild an index per candidate tree,
		// thousands per run — so fall back to a per-run index once instead.
		if ctx.dindex.Covers(a.Source, e.condAttrs) {
			e.dindex = ctx.dindex
			return e, nil
		}
		e.dindex, err = dtree.NewIndex(a.Source, e.condAttrs)
		if err != nil {
			return nil, err
		}
		accelIndexBuilds.Add(1)
		return e, nil
	}
	e.pcache = predicate.NewCache(a.Source)
	accelCacheBuilds.Add(1)
	e.dindex, err = dtree.NewIndex(a.Source, e.condAttrs)
	if err != nil {
		return nil, err
	}
	accelIndexBuilds.Add(1)
	return e, nil
}

// fittable reports whether row r's target changed and is finite on both
// sides. Only such rows are clustered and fitted: a NaN or ±Inf old or new
// value has no place on a regression line, and scoring leaves those rows
// out too.
func (e *engine) fittable(r int) bool {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	return e.changed[r] && finite(e.oldVals[r]) && finite(e.newVals[r])
}

// scored is one candidate summary with its α-free breakdown.
type scored struct {
	sum *model.Summary
	bd  score.Breakdown
}

func (e *engine) run() ([]Ranked, error) {
	if len(e.changedRows) == 0 {
		// changedRows excludes rows whose target is non-finite on either
		// side (no model can be fitted through them), so distinguish two
		// cases: with no changed cells at all, the truthful summary is the
		// explicit "no change"; with changes that are all NaN transitions,
		// claiming NoChange would contradict the diff layer (which reports
		// them), so return an empty ranking — "changed, but nothing
		// recoverable".
		if slices.Contains(e.changed, true) {
			return []Ranked{}, nil
		}
		s := &model.Summary{Target: e.opts.Target}
		ev, err := score.NewEvaluator(e.a.Source, e.newVals, e.changed, e.opts.Weights, e.pcache)
		if err != nil {
			return nil, err
		}
		bd, err := ev.Evaluate(s)
		if err != nil {
			return nil, err
		}
		ranked := rank([][]scored{{{s, bd}}}, e.opts.Alpha, e.opts.TopK)
		ranked[0].NoChange = true
		return ranked, nil
	}

	condSubsets := subsetsOf(e.condAttrs, e.opts.C, func(s []string) string { return fmt.Sprint(s) })
	tranSubsets := e.featureSubsets()

	// Fan the transformation-feature subsets across workers; the engine is
	// read-only during candidate generation. Each subset's candidates land
	// in its own slot and are ranked below in subset order, so the outcome
	// is independent of scheduling and of the worker count.
	workers := e.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, len(tranSubsets)), 1)
	// Each worker owns one Evaluator (scratch buffers are per-worker; the
	// compiled-atom cache is shared across all of them).
	evs := make([]*score.Evaluator, workers)
	for w := range evs {
		ev, err := score.NewEvaluator(e.a.Source, e.newVals, e.changed, e.opts.Weights, e.pcache)
		if err != nil {
			return nil, err
		}
		evs[w] = ev
	}
	units := make([][]scored, len(tranSubsets))
	errs := make([]error, len(tranSubsets))
	jobs := make(chan int)
	failed := make(chan struct{}) // closed on the first worker error: stop feeding
	var failOnce sync.Once
	var wg sync.WaitGroup
	for _, ev := range evs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				units[i], errs[i] = e.evalFeatureSet(tranSubsets[i], condSubsets, ev)
				if errs[i] != nil {
					failOnce.Do(func() { close(failed) })
				}
			}
		}()
	}
feed:
	for i := range tranSubsets {
		select {
		case jobs <- i:
		case <-failed:
			break feed // don't evaluate the remaining subsets
		}
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rank(units, e.opts.Alpha, e.opts.TopK), nil
}

// rank is where α enters the engine. It blends each candidate's score at
// alpha, keeps the best-scoring instance of each fingerprint, sorts, and
// returns the top topK. Candidates that share a fingerprint share their
// breakdown, so they tie; the first in (unit, position) order wins, which
// for the engine's units is the (T, C, k) order a one-worker run visits
// them in. The sort's tie-breaks make the order total. The units are only
// read: the answer holds fresh breakdowns, and none of the dropped
// candidates.
func rank(units [][]scored, alpha float64, topK int) []Ranked {
	type entry struct {
		c     *scored
		score float64
		fp    string
	}
	var kept []entry
	index := map[string]int{} // fingerprint -> its entry in kept
	for _, unit := range units {
		for i := range unit {
			c := &unit[i]
			en := entry{c, c.bd.Blend(alpha), c.sum.Fingerprint()}
			if j, ok := index[en.fp]; !ok {
				index[en.fp] = len(kept)
				kept = append(kept, en)
			} else if en.score > kept[j].score {
				kept[j] = en
			}
		}
	}
	sort.SliceStable(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.score != b.score {
			return a.score > b.score
		}
		// Deterministic tie-breaks: more interpretable (matters at α = 1,
		// where the blend ignores it), then smaller, then fingerprint.
		if a.c.bd.Interpretability != b.c.bd.Interpretability {
			return a.c.bd.Interpretability > b.c.bd.Interpretability
		}
		if a.c.sum.Size() != b.c.sum.Size() {
			return a.c.sum.Size() < b.c.sum.Size()
		}
		return a.fp < b.fp
	})
	kept = kept[:min(topK, len(kept))]
	ranked := make([]Ranked, len(kept))
	bds := make([]score.Breakdown, len(kept))
	for i, en := range kept {
		bds[i] = en.c.bd
		bds[i].Score = en.score
		ranked[i] = Ranked{Summary: en.c.sum, Breakdown: &bds[i]}
	}
	return ranked
}

// evalFeatureSet evaluates every (C, k) candidate for one transformation
// feature subset and returns the summaries with their α-free breakdowns.
// Everything that does not depend on the condition subset is hoisted: the
// usable rows, the global fit, and the clustering signal are computed once
// per T, and the partition labels once per (T, k) — the historical code
// re-derived all of it for every condition subset.
func (e *engine) evalFeatureSet(T []model.Feature, condSubsets [][]string, ev *score.Evaluator) ([]scored, error) {
	fm, err := e.featureMatrix(T)
	if err != nil {
		return nil, err
	}
	// Usable changed rows for this T.
	rows := make([]int, 0, len(e.changedRows))
	for _, r := range e.changedRows {
		if fm.ok[r] {
			rows = append(rows, r)
		}
	}
	if len(rows) == 0 {
		return nil, nil
	}
	global := e.globalFit(rows, fm)
	signal := e.signal(rows, fm, global)

	// Partition labels depend on (T, k) only; memoized lazily so the
	// emission order (C outer, k inner) matches the historical stream.
	labelsByK := make([][]int, e.opts.KMax+1)

	var out []scored
	for _, C := range condSubsets {
		for k := 1; k <= e.opts.KMax; k++ {
			if k > len(rows) {
				continue
			}
			labels := labelsByK[k]
			if labels == nil {
				labels, err = e.partitionLabels(signal, rows, fm, k)
				if err != nil {
					return nil, err
				}
				labelsByK[k] = labels
			}
			sum, err := e.candidate(C, T, k, fm, labels)
			if err != nil {
				return nil, err
			}
			if sum == nil {
				continue
			}
			bd, err := ev.Evaluate(sum)
			if err != nil {
				return nil, err
			}
			out = append(out, scored{sum, bd})
		}
	}
	return out, nil
}

// globalFit fits one model over all usable changed rows (per T; the
// residual-clustering seed). nil when the rows cannot support the fit — the
// signal falls back to shift residuals.
func (e *engine) globalFit(rows []int, fm *featMat) *regress.Model {
	gx := make([][]float64, len(rows))
	gy := make([]float64, len(rows))
	for i, r := range rows {
		gx[i] = fm.row(r)
		gy[i] = e.newVals[r]
	}
	global, err := regress.Fit(gx, gy, regress.DefaultOptions())
	if err != nil {
		return nil
	}
	return global
}

// signal builds the 1-D change signal that seeds partitioning. The default
// is the paper's residual-from-global-fit; Delta and Ratio exist for the
// ablation study.
func (e *engine) signal(rows []int, fm *featMat, global *regress.Model) []float64 {
	signal := make([]float64, len(rows))
	for i, r := range rows {
		switch e.opts.Strategy {
		case DeltaKMeans:
			signal[i] = e.newVals[r] - e.oldVals[r]
		case RatioKMeans:
			if e.oldVals[r] != 0 {
				signal[i] = e.newVals[r] / e.oldVals[r]
			} else {
				signal[i] = 0
			}
		default: // ResidualKMeans
			if global != nil {
				signal[i] = e.newVals[r] - global.Predict(fm.row(r))
			} else {
				signal[i] = e.newVals[r] - e.oldVals[r]
			}
		}
	}
	return signal
}

// partitionLabels clusters the signal into k groups (exact k-means + EM-style
// refinement; see seedAndRefine) and expands the result to a full per-row
// labeling: changed rows carry their cluster id, all other rows the
// "unchanged" class k, so the condition tree learns to separate them.
func (e *engine) partitionLabels(signal []float64, rows []int, fm *featMat, k int) ([]int, error) {
	clusterLabels, err := seedAndRefine(signal, rows, fm, e.newVals, k, e.opts.NoRefine)
	if err != nil {
		return nil, err
	}
	n := e.a.Source.NumRows()
	labels := make([]int, n)
	unchangedLabel := k
	for r := 0; r < n; r++ {
		labels[r] = unchangedLabel
	}
	for i, r := range rows {
		labels[r] = clusterLabels[i]
	}
	return labels, nil
}

// featureSubsets enumerates the transformation feature sets to try: all
// subsets of size ≤ t of the feature pool. The pool is the shortlisted
// attributes themselves, plus — when the nonlinear extension is enabled —
// their logs, squares, and pairwise interactions (the paper's "augmenting
// the data with nonlinear features").
func (e *engine) featureSubsets() [][]model.Feature {
	pool := make([]model.Feature, 0, len(e.tranAttrs))
	for _, attr := range e.tranAttrs {
		pool = append(pool, model.Lin(attr))
	}
	if e.opts.Nonlinear {
		for _, attr := range e.tranAttrs {
			if e.allPositive(attr) {
				pool = append(pool, model.Feature{Form: model.Log, Attr: attr})
			}
			pool = append(pool, model.Feature{Form: model.Square, Attr: attr})
		}
		for i := 0; i < len(e.tranAttrs); i++ {
			for j := i + 1; j < len(e.tranAttrs); j++ {
				pool = append(pool, model.Feature{Form: model.Interaction, Attr: e.tranAttrs[i], Attr2: e.tranAttrs[j]})
			}
		}
	}
	return subsetsOf(pool, e.opts.T, featNames)
}

func featNames(fs []model.Feature) string {
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = f.Name()
	}
	return fmt.Sprint(names)
}

// allPositive reports whether every non-null value of attr is > 0 (the log
// feature's domain).
func (e *engine) allPositive(attr string) bool {
	col, err := e.a.Source.Column(attr)
	if err != nil {
		return false
	}
	for r := 0; r < col.Len(); r++ {
		if col.IsNull(r) {
			continue
		}
		if col.Float(r) <= 0 {
			return false
		}
	}
	return true
}

// featMat is the feature matrix of one transformation subset T: a single
// flat row-major buffer (one allocation instead of one per row) plus a
// per-row finiteness mask. Row vectors are subslices, so downstream fitting
// code consumes them with zero copies.
type featMat struct {
	vals []float64 // NumRows × w, row-major
	w    int       // len(T)
	ok   []bool    // per-row: every feature finite
}

// row returns the feature vector of row r as a view into the flat buffer.
func (m *featMat) row(r int) []float64 { return m.vals[r*m.w : (r+1)*m.w] }

// featureMatrix evaluates the feature subset T over the source snapshot.
// Features are column-bound once (no per-row column lookups).
func (e *engine) featureMatrix(T []model.Feature) (*featMat, error) {
	n := e.a.Source.NumRows()
	m := &featMat{vals: make([]float64, n*len(T)), w: len(T), ok: make([]bool, n)}
	bound := make([]model.BoundFeature, len(T))
	for j, f := range T {
		bf, err := f.Bind(e.a.Source)
		if err != nil {
			return nil, err
		}
		bound[j] = bf
	}
	for r := 0; r < n; r++ {
		row := m.row(r)
		good := true
		for j := range bound {
			v := bound[j].At(r)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				good = false
				v = math.NaN()
			}
			row[j] = v
		}
		m.ok[r] = good
	}
	return m, nil
}

// candidate builds one summary for the attribute subsets (C, T) and cluster
// count k: condition induction over the precomputed partition labels →
// per-partition refit → snap. (The global fit, clustering signal, and
// labels are hoisted into evalFeatureSet — they do not depend on C.)
// Returns nil when the combination yields no explicit CTs.
func (e *engine) candidate(C []string, T []model.Feature, k int, fm *featMat, labels []int) (*model.Summary, error) {
	// Tree depth: a decision list needs up to k splits to carve k+1 classes
	// out of one categorical attribute (the paper's c bounds *attributes*
	// per condition, not atoms; simplifyPredicate collapses the ≠-chains
	// afterwards). A leaf may hold a single row.
	tree, err := dtree.Build(e.a.Source, C, labels, nil, dtree.Options{
		MaxDepth: min(max(len(C)+1, e.opts.KMax+1), 6),
		MinLeaf:  1,
		Index:    e.dindex,
	})
	if err != nil {
		return nil, err
	}

	// Per-partition transformation discovery.
	sum := &model.Summary{
		Target:    e.opts.Target,
		CondAttrs: append([]string(nil), C...),
		TranAttrs: tranAttrNames(T),
	}
	for _, leaf := range tree.Leaves() {
		pred, err := simplifyPredicate(leaf.Pred, e.a.Source, e.pcache)
		if err != nil {
			return nil, err
		}
		ct, err := e.fitPartition(pred, leaf.Rows, T, fm)
		if err != nil {
			return nil, err
		}
		if ct == nil {
			continue
		}
		if ct.Tran.NoChange {
			continue // the None leaf stays implicit
		}
		sum.CTs = append(sum.CTs, *ct)
	}
	if len(sum.CTs) == 0 {
		return nil, nil
	}
	// Present dominant partitions first (deterministic). Fingerprints are
	// precomputed: the comparator would otherwise normalize both conditions
	// on every comparison.
	fps := make([]string, len(sum.CTs))
	for i := range sum.CTs {
		fps[i] = sum.CTs[i].Cond.Fingerprint()
	}
	sort.Stable(&ctsByDominance{cts: sum.CTs, fps: fps})
	return sum, nil
}

type ctsByDominance struct {
	cts []model.CT
	fps []string
}

func (s *ctsByDominance) Len() int { return len(s.cts) }
func (s *ctsByDominance) Less(i, j int) bool {
	if s.cts[i].Rows != s.cts[j].Rows {
		return s.cts[i].Rows > s.cts[j].Rows
	}
	return s.fps[i] < s.fps[j]
}
func (s *ctsByDominance) Swap(i, j int) {
	s.cts[i], s.cts[j] = s.cts[j], s.cts[i]
	s.fps[i], s.fps[j] = s.fps[j], s.fps[i]
}

// fitPartition turns one induced partition into a CT. Partitions dominated
// by unchanged rows become "no change"; otherwise a linear model is fitted
// on the changed rows, with graceful fallbacks for tiny partitions, then
// snapped to normal constants.
func (e *engine) fitPartition(pred predicate.Predicate, rows []int, T []model.Feature, fm *featMat) (*model.CT, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	total := e.a.Source.NumRows()
	ct := &model.CT{
		Cond:     pred,
		Rows:     len(rows),
		Coverage: float64(len(rows)) / float64(total),
	}
	var chRows []int
	for _, r := range rows {
		if e.fittable(r) && fm.ok[r] {
			chRows = append(chRows, r)
		}
	}
	// Mostly-unchanged partition → identity transformation.
	if float64(len(chRows)) < 0.5*float64(len(rows)) {
		ct.Tran = model.Identity(e.opts.Target)
		return ct, nil
	}

	x := make([][]float64, len(chRows))
	y := make([]float64, len(chRows))
	// The snapping budget is relative to the *magnitude of change* in this
	// partition, not the magnitude of the target: rounding may cost a few
	// percent of the change, never a few percent of the value (which would
	// legalize erasing whole rules).
	deltaScale := 0.0
	for i, r := range chRows {
		x[i] = fm.row(r)
		y[i] = e.newVals[r]
		deltaScale += math.Abs(e.newVals[r] - e.oldVals[r])
	}
	deltaScale /= float64(len(chRows))
	var m *regress.Model
	var err error
	if e.opts.Robust {
		m, _, err = regress.FitRobust(x, y, regress.RobustOptions{Base: regress.DefaultOptions()})
	} else {
		m, err = regress.Fit(x, y, regress.DefaultOptions())
	}
	if err != nil {
		// Fallback 1: no intercept (needs one fewer row).
		m, err = regress.Fit(x, y, regress.Options{Intercept: false, Ridge: 1e-8})
	}
	var tran model.Transformation
	if err == nil {
		snapped := regress.Snap(m, x, y, regress.SnapOptions{Tolerance: e.opts.SnapTolerance, Scale: deltaScale})
		tran = model.Transformation{
			Target:    e.opts.Target,
			Features:  append([]model.Feature(nil), T...),
			Coef:      snapped.Coef,
			Intercept: snapped.Intercept,
		}
		ct.MAE = snapped.MAE
	} else {
		// Fallback 2: pure shift on the target's own previous value
		// (new = old + mean Δ); always well defined with ≥ 1 row.
		shift := 0.0
		for _, r := range chRows {
			shift += e.newVals[r] - e.oldVals[r]
		}
		shift /= float64(len(chRows))
		m2 := &regress.Model{Coef: []float64{1}, Intercept: shift}
		x2 := make([][]float64, len(chRows))
		for i, r := range chRows {
			x2[i] = []float64{e.oldVals[r]}
		}
		m2.Refit(x2, y)
		snapped := regress.Snap(m2, x2, y, regress.SnapOptions{Tolerance: e.opts.SnapTolerance, Scale: deltaScale})
		tran = model.Transformation{
			Target:    e.opts.Target,
			Inputs:    []string{e.opts.Target},
			Coef:      snapped.Coef,
			Intercept: snapped.Intercept,
		}
		ct.MAE = snapped.MAE
	}
	// A fitted transformation numerically equal to identity collapses to
	// NoChange (cleaner rendering, better interpretability score).
	if isIdentity(tran, e.opts.Target) {
		tran = model.Identity(e.opts.Target)
	}
	ct.Tran = tran
	return ct, nil
}

// isIdentity recognizes new_target = 1.0×target + 0.
func isIdentity(tr model.Transformation, target string) bool {
	if tr.NoChange {
		return true
	}
	if tr.Intercept != 0 {
		return false
	}
	for i, in := range tr.Inputs {
		c := tr.Coef[i]
		if in == target {
			if c != 1 {
				return false
			}
		} else if c != 0 {
			return false
		}
	}
	return len(tr.Inputs) > 0
}

// tranAttrNames returns the distinct underlying attribute names of a
// feature subset, for summary provenance.
func tranAttrNames(T []model.Feature) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range T {
		for _, a := range f.Attrs() {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	sort.Strings(out)
	return out
}

// subsetsOf enumerates the non-empty subsets of pool with at most maxSize
// elements, in deterministic order: by size, then by key (each caller's
// printed form of a subset), ties keeping pool-position order.
func subsetsOf[T any](pool []T, maxSize int, key func([]T) string) [][]T {
	maxSize = min(maxSize, len(pool))
	var out [][]T
	var rec func(start int, cur []T)
	rec = func(start int, cur []T) {
		if len(cur) > 0 {
			out = append(out, slices.Clone(cur))
		}
		if len(cur) == maxSize {
			return
		}
		for i := start; i < len(pool); i++ {
			rec(i+1, append(cur, pool[i]))
		}
	}
	rec(0, nil)
	sort.SliceStable(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return key(out[i]) < key(out[j])
	})
	return out
}
