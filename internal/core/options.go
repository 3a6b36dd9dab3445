// Package core implements the ChARLES diff discovery engine: given two
// aligned snapshots and a numeric target attribute, it enumerates candidate
// condition/transformation attribute subsets, discovers data partitions by
// clustering the residuals of a global fit, induces human-readable
// conditions for the partitions, fits per-partition transformations, and
// returns the top-K scored change summaries.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"charles/internal/model"
	"charles/internal/score"
	"charles/internal/table"
)

// ChangeTol is the absolute tolerance within which a numeric cell counts
// as unchanged between two snapshots: the engine, SummarizeAll and the
// timeline layer all detect change with it.
const ChangeTol = 1e-9

// Options configure a Summarize run. The zero value is not valid; use
// DefaultOptions and override fields.
//
// Some of the engine's shape is fixed rather than configured: change is
// detected at ChangeTol, an induced partition may hold a single row, a
// condition tree is at most min(max(|C|+1, KMax+1), 6) splits deep, and
// partitions that did not change stay implicit (the paper's None leaf)
// rather than appearing as "no change" CTs.
type Options struct {
	// Target is the numeric attribute whose evolution is summarized.
	Target string

	// CondAttrs and TranAttrs are the candidate attribute pools A_cond and
	// A_tran. Empty pools are filled by the setup assistant (correlation
	// shortlist, paper demo steps 4–5).
	CondAttrs []string
	TranAttrs []string

	// C and T bound the subset sizes: conditions use at most C attributes,
	// transformations at most T (paper parameters c and t).
	C int
	T int

	// KMax bounds the number of residual clusters (candidate partitions)
	// tried per attribute-subset pair.
	KMax int

	// Alpha weighs accuracy against interpretability in Score(S). It is
	// read only when the α-free candidates are ranked, after the search.
	Alpha float64

	// TopK is the number of ranked summaries to return (paper default 10).
	TopK int

	// Weights tune the interpretability sub-scores.
	Weights score.Weights

	// SnapTolerance is the relative accuracy loss allowed when rounding
	// fitted constants to "normal" values (0 disables snapping).
	SnapTolerance float64

	// Robust enables MAD-trimmed per-partition fitting, which keeps a few
	// off-policy edits (manual corrections, data-entry errors) from
	// dragging the recovered transformation away from the policy.
	Robust bool

	// Nonlinear augments the transformation feature pool with derived
	// features — ln(attr), attr², and pairwise products — so transformations
	// stay linear in the features while capturing nonlinear policies (the
	// extension sketched in the paper's limitations section). The feature
	// pool, and hence the search, grows quadratically in the number of
	// transformation attributes; the t bound still applies per summary.
	Nonlinear bool

	// Strategy selects how candidate partitions are discovered (the paper
	// notes "other methods of partitioning ... are certainly possible";
	// the non-default strategies exist for the ablation study E12).
	Strategy PartitionStrategy

	// NoRefine disables the EM-style cluster refinement between seeding
	// and condition induction (ablation knob; leave false in production —
	// without refinement, transformations that differ in slope over a wide
	// feature range are frequently conflated).
	NoRefine bool

	// Workers bounds the goroutines evaluating candidate (C, T, k)
	// combinations; 0 uses GOMAXPROCS. The search is embarrassingly
	// parallel over transformation-feature subsets, and results are
	// identical, summary for summary, regardless of worker count:
	// candidates are merged in subset order, so of two that tie on
	// fingerprint and score the first in (T, C, k) order wins, and the
	// ranking sorts with total-order tie-breaks. The timeline layer
	// (history.Walk) reuses the same knob to bound its per-step
	// worker pool, giving each engine run one worker when the step pool is
	// parallel so total concurrency stays at the bound.
	Workers int
}

// DefaultOptions returns the engine defaults used in the paper's demo:
// c = 3, t = 2, α = 0.5, top-10 summaries.
func DefaultOptions(target string) Options {
	return Options{
		Target:        target,
		C:             3,
		T:             2,
		KMax:          4,
		Alpha:         0.5,
		TopK:          10,
		Weights:       score.DefaultWeights(),
		SnapTolerance: 0.02,
		Robust:        true,
	}
}

// Fingerprint returns a deterministic digest of every option that can
// influence a Summarize result. Two Options values with equal fingerprints
// produce identical rankings over the same snapshot pair, down to the tie
// order and provenance of every summary (the engine has no source of
// randomness and is independent of Workers), which makes the fingerprint a
// sound component of result-cache keys.
func (o Options) Fingerprint() string {
	var b strings.Builder
	// Workers is deliberately excluded: results are identical regardless of
	// worker count. Every other field participates. String components are
	// %q-quoted so attribute names containing separators cannot make
	// distinct option sets collide.
	fmt.Fprintf(&b, "target=%q|cond=%s|tran=%s|c=%d|t=%d|kmax=%d|alpha=%.12g|topk=%d",
		o.Target, quoteList(o.CondAttrs), quoteList(o.TranAttrs),
		o.C, o.T, o.KMax, o.Alpha, o.TopK)
	fmt.Fprintf(&b, "|w=%.12g,%.12g,%.12g,%.12g,%.12g",
		o.Weights.Size, o.Weights.CondSimplicity, o.Weights.TranSimplicity,
		o.Weights.Coverage, o.Weights.Normality)
	fmt.Fprintf(&b, "|snap=%.12g|robust=%t|nonlinear=%t|strategy=%d|norefine=%t",
		o.SnapTolerance, o.Robust, o.Nonlinear, int(o.Strategy), o.NoRefine)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// quoteList renders a string slice unambiguously: each element %q-quoted,
// so {"a,b"} and {"a","b"} serialize differently.
func quoteList(items []string) string {
	quoted := make([]string, len(items))
	for i, s := range items {
		quoted[i] = fmt.Sprintf("%q", s)
	}
	return strings.Join(quoted, ",")
}

func (o Options) validate(src *table.Table) error {
	if o.Target == "" {
		return fmt.Errorf("core: no target attribute")
	}
	col, err := src.Column(o.Target)
	if err != nil {
		return err
	}
	if !col.Type.Numeric() {
		return fmt.Errorf("core: target attribute %q is %s, need numeric", o.Target, col.Type)
	}
	if o.C <= 0 || o.T <= 0 {
		return fmt.Errorf("core: parameters c=%d and t=%d must be positive", o.C, o.T)
	}
	if o.KMax <= 0 {
		return fmt.Errorf("core: KMax must be positive, got %d", o.KMax)
	}
	if o.Alpha < 0 || o.Alpha > 1 {
		return fmt.Errorf("core: alpha %g out of [0,1]", o.Alpha)
	}
	if o.TopK <= 0 {
		return fmt.Errorf("core: TopK must be positive, got %d", o.TopK)
	}
	return nil
}

// PartitionStrategy selects the clustering signal used to seed partitions.
type PartitionStrategy int

const (
	// ResidualKMeans clusters the residuals of a global fit (the paper's
	// method, and the default).
	ResidualKMeans PartitionStrategy = iota
	// DeltaKMeans clusters the raw change Δ = new − old. Cheap, but groups
	// with equal additive shifts and different slopes blur together.
	DeltaKMeans
	// RatioKMeans clusters the relative change new/old. Natural for purely
	// multiplicative policies; additive constants distort it.
	RatioKMeans
)

// String names the strategy for reports.
func (s PartitionStrategy) String() string {
	switch s {
	case ResidualKMeans:
		return "residual-kmeans"
	case DeltaKMeans:
		return "delta-kmeans"
	case RatioKMeans:
		return "ratio-kmeans"
	default:
		return fmt.Sprintf("PartitionStrategy(%d)", int(s))
	}
}

// Ranked pairs a summary with its evaluated score.
type Ranked struct {
	Summary   *model.Summary
	Breakdown *score.Breakdown

	// NoChange marks the engine's explicit "nothing changed" result: the
	// target attribute did not move between the snapshots, and Summary is
	// the empty summary. It is the authoritative signal — callers should
	// test it rather than inferring no-change from Summary.Size().
	NoChange bool
}

// Score returns the blended score (convenience accessor).
func (r Ranked) Score() float64 { return r.Breakdown.Score }
