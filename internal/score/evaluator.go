package score

import (
	"fmt"
	"math"
	"math/bits"

	"charles/internal/model"
	"charles/internal/predicate"
	"charles/internal/table"
)

// Evaluator scores summaries against one fixed (source, actual, changed)
// triple, as the engine scores thousands of candidates against one. It
// binds everything that does not depend on the summary once:
//
//   - the target column is resolved to a float view on first use;
//   - the accuracy normalization scale (mean |Δtarget| over changed rows)
//     is summary-independent and precomputed;
//   - CT conditions evaluate through a shared predicate.Cache of compiled
//     atom bitmaps, so each distinct atom touches the rows once per cache;
//   - predictions, coverage, and mask buffers are scratch, reused across
//     calls — steady-state scoring does zero allocations.
//
// Its breakdowns equal Evaluate's field for field (same arithmetic, same
// order). An Evaluator is not safe for concurrent use, but the shared cache
// is: each engine worker owns one Evaluator over the run's one cache.
type Evaluator struct {
	src     *table.Table
	actual  []float64
	changed []bool
	w       Weights

	cache *predicate.Cache

	// Target binding (established on first Evaluate, summary target
	// changes rebind).
	target   string
	tvals    []float64
	scaleSum float64 // Σ |actual − old| over changed rows with finite delta
	nDelta   int     // changed rows with a finite delta
	nChanged int     // all changed rows (coverage denominator)

	// Per-row changed mask in bitset form, for popcount coverage.
	changedBits predicate.Bitset

	// Scratch reused across Evaluate calls.
	preds   []float64
	covered predicate.Bitset
	mask    predicate.Bitset
	ctran   model.CompiledTransformation
}

// NewEvaluator builds an evaluator for scoring summaries against the actual
// evolved values (see Evaluate for the argument contract). Conditions
// compile into cache, which must be built over src.
func NewEvaluator(src *table.Table, actual []float64, changed []bool, w Weights, cache *predicate.Cache) (*Evaluator, error) {
	if src.NumRows() != len(actual) || len(actual) != len(changed) {
		return nil, fmt.Errorf("score: inconsistent lengths (rows=%d actual=%d changed=%d)", src.NumRows(), len(actual), len(changed))
	}
	n := len(actual)
	e := &Evaluator{
		src:         src,
		actual:      actual,
		changed:     changed,
		w:           w,
		cache:       cache,
		changedBits: predicate.NewBitset(n),
		preds:       make([]float64, n),
		covered:     predicate.NewBitset(n),
		mask:        predicate.NewBitset(n),
	}
	for r, ch := range changed {
		if ch {
			e.changedBits.Set(r)
			e.nChanged++
		}
	}
	return e, nil
}

// bindTarget resolves the target column and precomputes the
// summary-independent half of the accuracy scale.
func (e *Evaluator) bindTarget(target string) error {
	tcol, err := e.src.Column(target)
	if err != nil {
		return err
	}
	e.target = target
	e.tvals = tcol.FloatView()
	if e.tvals == nil {
		// Non-numeric target: Float(r) is NaN everywhere, like Evaluate.
		nan := make([]float64, len(e.actual))
		for i := range nan {
			nan[i] = math.NaN()
		}
		e.tvals = nan
	}
	e.scaleSum, e.nDelta = 0, 0
	for r, ch := range e.changed {
		if !ch {
			continue
		}
		d := math.Abs(e.actual[r] - e.tvals[r])
		if !math.IsNaN(d) && !math.IsInf(d, 0) {
			e.scaleSum += d
			e.nDelta++
		}
	}
	return nil
}

// Evaluate scores summary s and returns its α-free breakdown (Score is
// zero; Blend gives it). The Breakdown is returned by value so the steady
// state allocates nothing; results equal Evaluate's exactly.
func (e *Evaluator) Evaluate(s *model.Summary) (Breakdown, error) {
	if e.tvals == nil || s.Target != e.target {
		if err := e.bindTarget(s.Target); err != nil {
			return Breakdown{}, err
		}
	}
	n := len(e.actual)

	// ----- Apply: first matching CT per row, via compiled masks -----
	copy(e.preds, e.tvals) // default: unchanged
	e.covered.Zero()
	for i := range s.CTs {
		ct := &s.CTs[i]
		mask, err := e.cache.Mask(ct.Cond, e.mask)
		if err != nil {
			return Breakdown{}, err
		}
		e.mask = mask
		mask.AndNot(e.covered) // rows already claimed by an earlier CT
		if err := ct.Tran.CompileInto(&e.ctran, e.src); err != nil {
			return Breakdown{}, err
		}
		// Manual word walk (ForEach's closure would be this loop's only
		// heap allocation).
		for wi, w := range mask {
			for w != 0 {
				r := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				e.preds[r] = e.ctran.At(r)
			}
		}
		e.covered.Or(mask)
	}

	b := Breakdown{}

	// ----- Accuracy: normalized inverse L1 (same arithmetic as Evaluate) ---
	var sae float64
	var nScored int
	for r := 0; r < n; r++ {
		d := math.Abs(e.preds[r] - e.actual[r])
		if !math.IsNaN(d) && !math.IsInf(d, 0) {
			sae += d
			nScored++
		}
	}
	if nScored == 0 {
		nScored = 1
	}
	b.MAE = sae / float64(nScored)
	scale := e.scaleSum
	if e.nDelta > 0 {
		scale /= float64(e.nDelta)
		scale *= float64(e.nDelta) / float64(nScored)
		scale /= AccuracySharpness
	}
	if scale <= 0 {
		scale = 1
	}
	b.Scale = scale
	b.Accuracy = 1 / (1 + b.MAE/scale)

	// ----- Interpretability -----
	b.Size = sizeScore(s.Size())
	b.CondSimplicity = condSimplicity(s)
	b.TranSimplicity = tranSimplicity(s)
	b.Coverage = e.coverage()
	b.Normality = normality(s)

	b.Interpretability = harmonicMean([]float64{b.Size, b.CondSimplicity, b.TranSimplicity, b.Coverage, b.Normality},
		[]float64{e.w.Size, e.w.CondSimplicity, e.w.TranSimplicity, e.w.Coverage, e.w.Normality})
	return b, nil
}

// coverage is coverageScore over the scratch bitsets: the fraction of
// changed rows claimed by some CT.
func (e *Evaluator) coverage() float64 {
	if e.nChanged == 0 {
		return 1
	}
	hit := 0
	for i, w := range e.covered {
		hit += bits.OnesCount64(w & e.changedBits[i])
	}
	return float64(hit) / float64(e.nChanged)
}
