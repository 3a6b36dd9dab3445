// Package score implements the ChARLES summary scoring model:
//
//	Score(S) = α·Accuracy(S) + (1−α)·Interpretability(S)
//
// Accuracy is the normalized inverse L1 distance between the transformed
// source and the actual target. Interpretability concretizes the paper's
// four preferences — smaller summaries, simpler conditions and
// transformations, higher coverage, and more "normal" constants — as a
// weighted mean of sub-scores in [0,1].
//
// Scoring has two halves. Evaluator computes a summary's α-free Breakdown
// (accuracy, interpretability and their components) through compiled
// predicate masks, a bound target column and reused scratch buffers; it is
// the program's only scorer. Breakdown.Blend then mixes accuracy and
// interpretability for one α, and is the only code that computes Score, so
// one breakdown can be ranked at any α. Evaluate is the row-at-a-time
// reference the Evaluator is tested against, field for field.
package score

import (
	"fmt"
	"math"

	"charles/internal/model"
	"charles/internal/regress"
	"charles/internal/table"
)

// Weights set the relative importance of the interpretability sub-scores.
// Zero-valued weights drop a component; the default weights everything
// equally.
type Weights struct {
	Size           float64 // fewer CTs
	CondSimplicity float64 // fewer descriptors per condition
	TranSimplicity float64 // fewer variables per transformation
	Coverage       float64 // conditions that explain more of the change
	Normality      float64 // rounder numeric constants
}

// DefaultWeights weights all five interpretability components equally.
func DefaultWeights() Weights {
	return Weights{Size: 1, CondSimplicity: 1, TranSimplicity: 1, Coverage: 1, Normality: 1}
}

// SizePenalty shapes the size sub-score: 1/(1+SizePenalty·(|S|−1)).
// A summary of 1 CT scores 1.0; with the default 0.25, 3 CTs score 0.67.
const SizePenalty = 0.25

// AccuracySharpness controls how fast accuracy decays with error: a summary
// whose mean absolute error is 1/AccuracySharpness of the mean observed
// change scores 0.5 accuracy. Sharp decay is what lets a precise multi-CT
// summary beat a sloppy single-CT one at the default α = 0.5 (the paper's
// Example 1 ranking).
const AccuracySharpness = 10

// Breakdown is an evaluated summary: its accuracy, its interpretability
// with their components, and the Score that Blend gives them at one α.
// Evaluator and Evaluate leave Score zero.
type Breakdown struct {
	Score            float64
	Accuracy         float64
	Interpretability float64

	// Interpretability components (each in [0,1]).
	Size           float64
	CondSimplicity float64
	TranSimplicity float64
	Coverage       float64
	Normality      float64

	// Diagnostics.
	MAE   float64 // mean |predicted − actual| over all rows
	Scale float64 // normalization scale (mean |Δtarget| over changed rows)
}

// Blend is Score(S) = α·Accuracy + (1−α)·Interpretability, the ranking
// score at accuracy weight α.
func (b Breakdown) Blend(alpha float64) float64 {
	return alpha*b.Accuracy + (1-alpha)*b.Interpretability
}

// Evaluate is the row-at-a-time reference scorer: it evaluates summary s
// against the actual evolved values, row by row through Summary.Apply, and
// returns the α-free breakdown. The program scores through Evaluator;
// Evaluate is what the tests hold it to.
//
//	src      — the source snapshot (CT inputs are read from it)
//	actual   — target-attribute values in the *target* snapshot, aligned to
//	           source row order
//	changed  — per-source-row mask of rows whose target attribute changed
func Evaluate(s *model.Summary, src *table.Table, actual []float64, changed []bool, w Weights) (*Breakdown, error) {
	if src.NumRows() != len(actual) || len(actual) != len(changed) {
		return nil, fmt.Errorf("score: inconsistent lengths (rows=%d actual=%d changed=%d)", src.NumRows(), len(actual), len(changed))
	}
	preds, covered, err := s.Apply(src)
	if err != nil {
		return nil, err
	}
	b := &Breakdown{}

	// ----- Accuracy: normalized inverse L1 -----
	tcol, err := src.Column(s.Target)
	if err != nil {
		return nil, err
	}
	n := len(actual)
	var sae float64
	var scale float64
	var nChanged, nScored int
	for r := 0; r < n; r++ {
		// Rows without a numeric before/after (nulls) cannot be scored on
		// an L1 basis; skipping them beats poisoning the whole score with
		// NaN. Such changes are still visible in the raw diff.
		e := math.Abs(preds[r] - actual[r])
		if !math.IsNaN(e) && !math.IsInf(e, 0) {
			sae += e
			nScored++
		}
		if changed[r] {
			d := math.Abs(actual[r] - tcol.Float(r))
			if !math.IsNaN(d) && !math.IsInf(d, 0) {
				scale += d
				nChanged++
			}
		}
	}
	if nScored == 0 {
		nScored = 1
	}
	b.MAE = sae / float64(nScored)
	if nChanged > 0 {
		// Per-row mean change magnitude, spread over all rows, then
		// sharpened: Accuracy = 1/(1 + κ·MAE/meanΔ). A perfect summary
		// scores 1; the identity summary (MAE = meanΔ) scores 1/(1+κ).
		scale /= float64(nChanged)
		scale *= float64(nChanged) / float64(nScored)
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
	b.Coverage = coverageScore(covered, changed)
	b.Normality = normality(s)

	b.Interpretability = harmonicMean([]float64{b.Size, b.CondSimplicity, b.TranSimplicity, b.Coverage, b.Normality},
		[]float64{w.Size, w.CondSimplicity, w.TranSimplicity, w.Coverage, w.Normality})
	return b, nil
}

// harmonicMean aggregates the interpretability components as a weighted
// harmonic mean: interpretability is a weakest-link property — a summary
// with 361 CTs is unreadable no matter how simple each CT is, and a
// condition covering 1% of the change explains almost nothing no matter how
// round its constants are. The arithmetic mean would let strong components
// paper over a fatal one.
func harmonicMean(xs, ws []float64) float64 {
	const eps = 1e-6
	var sumW, sumWX float64
	for i, x := range xs {
		w := ws[i]
		if w <= 0 {
			continue
		}
		if x < eps {
			x = eps
		}
		sumW += w
		sumWX += w / x
	}
	if sumW == 0 || sumWX == 0 {
		return 0
	}
	return sumW / sumWX
}

// sizeScore prefers smaller summaries: 1 CT → 1.0, each extra CT discounts.
func sizeScore(size int) float64 {
	if size <= 0 {
		return 1
	}
	return 1 / (1 + SizePenalty*float64(size-1))
}

// condSimplicity is the reciprocal of the mean number of descriptors per
// condition ("All Females" beats "Asian or European Females in HR").
func condSimplicity(s *model.Summary) float64 {
	if len(s.CTs) == 0 {
		return 1
	}
	total := 0.0
	for _, ct := range s.CTs {
		c := ct.Cond.Complexity()
		if c < 1 {
			c = 1 // TRUE is as simple as a single descriptor
		}
		total += float64(c)
	}
	mean := total / float64(len(s.CTs))
	return 1 / mean
}

// tranSimplicity is the reciprocal of the mean variable count per
// transformation; "no change" counts as maximally simple.
func tranSimplicity(s *model.Summary) float64 {
	if len(s.CTs) == 0 {
		return 1
	}
	total := 0.0
	for _, ct := range s.CTs {
		v := ct.Tran.Complexity()
		if v < 1 {
			v = 1
		}
		total += float64(v)
	}
	mean := total / float64(len(s.CTs))
	return 1 / mean
}

// coverageScore is the fraction of *changed* rows matched by some CT: a
// summary whose conditions miss most of the change explains little.
func coverageScore(covered, changed []bool) float64 {
	var hit, total int
	for r := range changed {
		if changed[r] {
			total++
			if covered[r] {
				hit++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(hit) / float64(total)
}

// normality averages the Roundness of every numeric constant appearing in
// the summary: multiplicative coefficients near 1 are judged on their rate
// (1.05 → 5%), matching how humans read raise policies; condition thresholds
// and additive constants are judged directly.
func normality(s *model.Summary) float64 {
	var total float64
	var count int
	for _, ct := range s.CTs {
		for _, a := range ct.Cond.Atoms {
			if a.Numeric {
				total += regress.Roundness(a.Num)
				count++
			}
		}
		// Inline Transformation.Constants (nonzero coefficients, then the
		// intercept) without materializing the slice — this runs once per
		// CT per scored candidate.
		if ct.Tran.NoChange {
			continue
		}
		for _, c := range ct.Tran.Coef {
			if c != 0 {
				total += ConstantRoundness(c)
				count++
			}
		}
		if ct.Tran.Intercept != 0 {
			total += ConstantRoundness(ct.Tran.Intercept)
			count++
		}
	}
	if count == 0 {
		return 1
	}
	return total / float64(count)
}

// ConstantRoundness scores a transformation constant. Coefficients in
// (0.5, 1.5) are additionally judged as rates around 1 (so 1.05 is as round
// as 5%); the better of the two views wins.
func ConstantRoundness(x float64) float64 {
	r := regress.Roundness(x)
	if x > 0.5 && x < 1.5 && x != 1 {
		if alt := regress.Roundness(x - 1); alt > r {
			r = alt
		}
	}
	return r
}
