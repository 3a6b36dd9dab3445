package core

import (
	"charles/internal/diff"
	"charles/internal/table"
)

// MultiResult holds per-attribute summaries for a whole-table run.
type MultiResult struct {
	// Attrs lists the summarized attributes in schema order.
	Attrs []string
	// ByAttr maps each changed numeric attribute to its ranked summaries.
	ByAttr map[string][]Ranked
	// Skipped lists changed attributes that could not be summarized
	// (non-numeric), mapped to the reason. Change detection uses
	// ChangeTol, as the engine does, so Skipped and Attrs together cover
	// exactly the attributes a diff at that tolerance reports as changed.
	Skipped map[string]string
}

// SummarizeAll discovers every changed attribute between the snapshots and
// runs the engine once per changed *numeric* attribute, reusing base for
// everything except Target (and clearing TranAttrs so each target gets its
// own assistant shortlist when none was given). Changed categorical
// attributes are reported in Skipped — ChARLES explains numeric evolution.
// All targets share one PairContext: the pair is aligned once and the atom
// cache and split index are built once, not per target.
func SummarizeAll(src, tgt *table.Table, base Options) (*MultiResult, error) {
	a, err := diff.Align(src, tgt)
	if err != nil {
		return nil, err
	}
	ctx, err := NewPairContext(a)
	if err != nil {
		return nil, err
	}
	return SummarizeAllWith(a, base, ctx.Summarize)
}

// SummarizeAllWith is SummarizeAll over an aligned pair with a caller-chosen
// engine run: it picks the targets and their options, and run produces each
// target's ranking. SummarizeAll passes a PairContext's Summarize; the
// timeline layer passes a memoized run that builds the pair's context only
// when some target is not remembered.
func SummarizeAllWith(a *diff.Aligned, base Options, run func(Options) ([]Ranked, error)) (*MultiResult, error) {
	changed, err := a.ChangedAttrs(ChangeTol)
	if err != nil {
		return nil, err
	}
	res := &MultiResult{ByAttr: map[string][]Ranked{}, Skipped: map[string]string{}}
	for _, attr := range changed {
		col, err := a.Source.Column(attr)
		if err != nil {
			return nil, err
		}
		if !col.Type.Numeric() {
			res.Skipped[attr] = "non-numeric attribute (categorical change)"
			continue
		}
		opts := base
		opts.Target = attr
		// Per-target pools: a shortlist computed for one target is wrong
		// for another, so only explicit user pools carry over.
		if len(base.TranAttrs) == 0 {
			opts.TranAttrs = nil
		}
		if len(base.CondAttrs) == 0 {
			opts.CondAttrs = nil
		}
		ranked, err := run(opts)
		if err != nil {
			return nil, err
		}
		res.Attrs = append(res.Attrs, attr)
		res.ByAttr[attr] = ranked
	}
	// ChangedAttrs reports in schema order and the loop preserves it, so
	// Attrs matches its documentation without re-sorting (the historical
	// sort.Strings here contradicted the doc).
	return res, nil
}
