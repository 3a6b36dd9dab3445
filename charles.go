// Package charles is a Go implementation of ChARLES — Change-Aware Recovery
// of Latent Evolution Semantics in Relational Data (He, Meliou, Fariha;
// SIGMOD 2025).
//
// Given two snapshots of a relational table with identical schema and
// entities, and a numeric target attribute, ChARLES produces a ranked list
// of change summaries. Each summary is a set of conditional transformations
// (CTs): a predicate identifying a data partition, paired with a linear
// model describing how the target evolved there, e.g.
//
//	edu = PhD  →  new_bonus = 1.05×bonus + 1000
//
// Summaries are scored by Score(S) = α·Accuracy + (1−α)·Interpretability and
// can be rendered as linear model trees or partition treemaps.
//
// Typical usage:
//
//	src, _ := charles.LoadCSV("salaries_2016.csv", "name")
//	tgt, _ := charles.LoadCSV("salaries_2017.csv", "name")
//	opts := charles.DefaultOptions("bonus")
//	ranked, _ := charles.Summarize(src, tgt, opts)
//	fmt.Println(charles.RenderTree(ranked[0].Summary))
package charles

import (
	"context"
	"fmt"

	"charles/internal/assist"
	"charles/internal/core"
	"charles/internal/diff"
	"charles/internal/history"
	"charles/internal/model"
	"charles/internal/predicate"
	"charles/internal/score"
	"charles/internal/table"
)

// Re-exported core types. They are defined in internal packages and aliased
// here so the public surface is a single import.
type (
	// Table is an in-memory columnar relational table.
	Table = table.Table
	// Schema describes a table's ordered, typed columns.
	Schema = table.Schema
	// Field is one column of a schema.
	Field = table.Field
	// Value is a dynamically typed cell value.
	Value = table.Value
	// Type tags column/value types.
	Type = table.Type

	// Options configure a Summarize run.
	Options = core.Options
	// Ranked pairs a summary with its evaluated score.
	Ranked = core.Ranked
	// Summary is a set of conditional transformations for one target.
	Summary = model.Summary
	// CT is one conditional transformation.
	CT = model.CT
	// Transformation is the linear-model half of a CT.
	Transformation = model.Transformation
	// Breakdown is a fully evaluated score with all components.
	Breakdown = score.Breakdown
	// Weights tune the interpretability sub-scores.
	Weights = score.Weights
	// Suggestion is one ranked candidate attribute from the setup assistant.
	Suggestion = assist.Suggestion
	// Aligned is a key-matched snapshot pair.
	Aligned = diff.Aligned
	// Change is one modified cell.
	Change = diff.Change
)

// Column type tags.
const (
	Float  = table.Float
	Int    = table.Int
	String = table.String
	Bool   = table.Bool
)

// Value constructors.
var (
	// F builds a float Value.
	F = table.F
	// I builds an int Value.
	I = table.I
	// S builds a string Value.
	S = table.S
	// B builds a bool Value.
	B = table.B
)

// DefaultOptions returns the engine defaults used in the paper's demo:
// c = 3, t = 2, α = 0.5, top-10 summaries.
func DefaultOptions(target string) Options { return core.DefaultOptions(target) }

// DefaultWeights weights all interpretability components equally.
func DefaultWeights() Weights { return score.DefaultWeights() }

// Summarize runs the full ChARLES pipeline — align, enumerate attribute
// subsets, discover partitions, fit and snap transformations, score and
// rank — and returns the top summaries for opts.Target.
func Summarize(src, tgt *Table, opts Options) ([]Ranked, error) {
	return core.Summarize(src, tgt, opts)
}

// Align validates and key-matches a snapshot pair without summarizing;
// useful for inspecting raw changes or running several targets.
func Align(src, tgt *Table) (*Aligned, error) { return diff.Align(src, tgt) }

// CommonAlignment is a tolerant alignment over the entity intersection,
// with inserted/deleted rows reported instead of rejected.
type CommonAlignment = diff.CommonAlignment

// AlignCommon relaxes the paper's no-insert/no-delete assumption: snapshots
// are matched on their common entities, and rows present in only one side
// are reported. Feed the embedded Aligned to SummarizeAligned to explain
// the evolution of the surviving entities.
func AlignCommon(src, tgt *Table) (*CommonAlignment, error) {
	return diff.AlignCommon(src, tgt)
}

// SummarizeAligned is Summarize over a pre-aligned pair.
func SummarizeAligned(a *Aligned, opts Options) ([]Ranked, error) {
	return core.SummarizeAligned(a, opts)
}

// Evaluate scores one summary against the actual evolved target values
// (aligned to source row order) at accuracy weight alpha ∈ [0,1], exactly
// as the engine scores its candidates: through a score.Evaluator, with
// Score blended by Breakdown.Blend. It exists for callers scoring
// externally supplied summaries, such as a hand-written policy or a
// baseline. The row-at-a-time score.Evaluate is the reference both are
// tested against.
func Evaluate(s *Summary, src *Table, actual []float64, changed []bool, alpha float64, w Weights) (*Breakdown, error) {
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("charles: alpha %g out of [0,1]", alpha)
	}
	ev, err := score.NewEvaluator(src, actual, changed, w, predicate.NewCache(src))
	if err != nil {
		return nil, err
	}
	bd, err := ev.Evaluate(s)
	if err != nil {
		return nil, err
	}
	bd.Score = bd.Blend(alpha)
	return &bd, nil
}

// SuggestAttributes runs the setup assistant: it ranks candidate condition
// attributes (by association with the observed change) and transformation
// attributes (numeric, by correlation with the new target value).
func SuggestAttributes(src, tgt *Table, target string) (cond, tran []Suggestion, err error) {
	a, err := diff.Align(src, tgt)
	if err != nil {
		return nil, nil, err
	}
	cond, err = assist.SuggestCondition(a, target, core.ChangeTol)
	if err != nil {
		return nil, nil, err
	}
	tran, err = assist.SuggestTransformation(a, target, core.ChangeTol)
	if err != nil {
		return nil, nil, err
	}
	return cond, tran, nil
}

// Changes lists every modified cell of the target attribute between the
// snapshots (the raw diff the summaries compress).
func Changes(src, tgt *Table, target string) ([]Change, error) {
	a, err := diff.Align(src, tgt)
	if err != nil {
		return nil, err
	}
	return a.Changes(target, core.ChangeTol)
}

// MultiResult holds the per-attribute output of SummarizeAll.
type MultiResult = core.MultiResult

// SummarizeAll summarizes every changed numeric attribute between the
// snapshots in one call; base supplies the shared parameters (α, c, t, …)
// and its Target field is ignored. Changed categorical attributes are
// reported as skipped.
func SummarizeAll(src, tgt *Table, base Options) (*MultiResult, error) {
	return core.SummarizeAll(src, tgt, base)
}

// ExportSQL renders a summary as ANSI-SQL UPDATE statements replaying the
// recovered evolution against a table named tableName.
func ExportSQL(s *Summary, tableName string) string {
	return s.SQL(tableName)
}

// Timeline is the summarized evolution of one attribute across a snapshot
// sequence (one entry of a MultiTimeline).
type Timeline = history.Timeline

// TimelineStep is one summarized consecutive pair of a timeline.
type TimelineStep = history.Step

// Drift describes how a recovered policy moved between consecutive steps.
type Drift = history.Drift

// MultiTimeline is the batch form of Timeline: one timeline per changed
// numeric attribute across the whole snapshot sequence.
type MultiTimeline = history.MultiTimeline

// SummarizeTimeline extends ChARLES from a snapshot pair to a snapshot
// sequence D₁…Dₙ: each consecutive step is summarized — every changed
// numeric attribute when target is empty, else only target — and each
// timeline can report policy drift between steps. Steps run concurrently on
// a pool bounded by base.Workers, each pair is aligned once, and all
// targets of a pair share one PairContext; steps where an attribute did not
// move are marked NoChange without an engine run. base supplies the shared
// parameters (α, c, t, …); its Target field is ignored.
func SummarizeTimeline(ctx context.Context, snapshots []*Table, target string, base Options) (*MultiTimeline, error) {
	return history.Walk(ctx, snapshots, target, base, nil)
}

// PairContext carries the target-independent derived state of one aligned
// snapshot pair (compiled atom bitmaps, split index) so that multiple
// Summarize runs over the same pair — different targets, repeated queries —
// share it instead of rebuilding it per run. Safe for concurrent use.
type PairContext = core.PairContext

// NewPairContext builds the shared acceleration structures for an aligned
// pair; an explicit condition pool narrows the split index to those
// attributes (default: every non-key column). Run targets through
// PairContext.Summarize; results are bit-identical to
// Summarize/SummarizeAligned with the same options.
func NewPairContext(a *Aligned, condAttrs ...string) (*PairContext, error) {
	return core.NewPairContext(a, condAttrs...)
}
