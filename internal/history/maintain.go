// Incremental timeline maintenance: instead of re-walking a version chain
// on every question, a TimelineMaintainer keeps the per-step engine results
// alive and extends them by exactly one step per commit — the "query
// answering under updates" idea (Berkholz/Keppeler/Schweikardt,
// arXiv:1702.08764) applied to change summarization. Extension work is
// O(one step) regardless of chain length, and the maintained MultiTimeline
// is bit-identical to a from-scratch Walk of the same chain: both paths
// run the same step of the same deterministic, worker-count-independent
// engine on the same pairs and merge with the same mergeSteps. Advance is
// the one rule that moves a maintainer to a new head: extend along the
// lineage, or rebuild.

package history

import (
	"context"
	"fmt"
	"slices"

	"charles/internal/core"
	"charles/internal/store"
	"charles/internal/table"
)

// TimelineMaintainer incrementally maintains a MultiTimeline over a growing
// version chain. It is NOT safe for concurrent use; callers serialize
// access (the serve layer holds one per shard behind a mutex).
type TimelineMaintainer struct {
	base    core.Options
	ids     []string // version ids, root → head (len == len(results)+1)
	first   *table.Table
	last    *table.Table
	results []*core.MultiResult // one per consecutive pair
}

// NewTimelineMaintainerContext summarizes the seed chain and returns a
// maintainer positioned at its head. snapshots and ids must be parallel
// (root → head) with at least 2 entries. The seed walk runs on Walk's
// bounded step pool under ctx. The snapshots are retained only at the
// endpoints: first (for schema-ordered merging) and last (the pair source
// for the next Extend).
func NewTimelineMaintainerContext(ctx context.Context, snapshots []*table.Table, ids []string, base core.Options) (*TimelineMaintainer, error) {
	return newMaintainer(ctx, snapshots, ids, base, nil)
}

// newMaintainer is NewTimelineMaintainerContext with the seed walk's engine
// runs routed through memo (see Walk).
func newMaintainer(ctx context.Context, snapshots []*table.Table, ids []string, base core.Options, memo Memo) (*TimelineMaintainer, error) {
	if len(snapshots) != len(ids) {
		return nil, fmt.Errorf("history: %d snapshots but %d ids", len(snapshots), len(ids))
	}
	results, err := walk(ctx, snapshots, "", base, memo)
	if err != nil {
		return nil, err
	}
	return &TimelineMaintainer{
		base:    base,
		ids:     append([]string(nil), ids...),
		first:   snapshots[0],
		last:    snapshots[len(snapshots)-1],
		results: results,
	}, nil
}

// Advance brings m to the head of the lineage ids (version ids root → head,
// at least 2) and reports whether it got there by extension. When m's head
// is on ids, each later version is checked out and appended by one engine
// step apiece. Otherwise — m is nil, on another branch, or a step will not
// extend (a schema change, say) — it seeds a new maintainer over ids under
// base. Either way every engine run goes through memo, as the step's
// position in ids (step i is ids[i] → ids[i+1]). The extension works on a
// fork, so m itself is never left half-extended. ctx is checked before each
// extension step and bounds the seed walk.
func Advance(ctx context.Context, m *TimelineMaintainer, st *store.Store, ids []string, base core.Options, memo Memo) (*TimelineMaintainer, bool, error) {
	if m != nil {
		if at := slices.Index(ids, m.Head()); at >= 0 {
			next, extended := m.Fork(), true
			for i := at; i+1 < len(ids); i++ {
				if err := ctx.Err(); err != nil {
					return nil, false, err
				}
				tgt, err := st.Checkout(ids[i+1])
				if err != nil || next.extend(ids[i+1], tgt, i, memo) != nil {
					extended = false
					break
				}
			}
			if extended {
				return next, true, nil
			}
		}
	}
	snapshots, err := MaterializeChainContext(ctx, st, ids)
	if err != nil {
		return nil, false, err
	}
	next, err := newMaintainer(ctx, snapshots, ids, base, memo)
	return next, false, err
}

// Head returns the version id the maintainer is currently positioned at.
func (m *TimelineMaintainer) Head() string { return m.ids[len(m.ids)-1] }

// Steps returns the number of maintained consecutive pairs.
func (m *TimelineMaintainer) Steps() int { return len(m.results) }

// Versions returns a copy of the maintained chain's ids, root → head.
func (m *TimelineMaintainer) Versions() []string {
	return append([]string(nil), m.ids...)
}

// Extend advances the maintainer by one commit: next is the new head
// snapshot (id its version id), and exactly one engine step — last pair
// only — runs. On error (most commonly a schema change, which diff.Align
// rejects) the maintainer is left unchanged so the caller can fall back to
// a full rebuild over the new chain.
func (m *TimelineMaintainer) Extend(id string, next *table.Table) error {
	return m.extend(id, next, len(m.results), nil)
}

// extend is Extend with the step's engine runs routed through memo as step
// i (see Memo).
func (m *TimelineMaintainer) extend(id string, next *table.Table, i int, memo Memo) error {
	res, err := summarizeStep(i, m.last, next, "", m.base, memo)
	if err != nil {
		return fmt.Errorf("history: extend %s→%s: %w", m.Head(), id, err)
	}
	m.ids = append(m.ids, id)
	m.results = append(m.results, res)
	m.last = next
	return nil
}

// ExtendFromSource is Extend with the new head checked out of st. The
// maintainer must currently be positioned at the new version's parent.
func (m *TimelineMaintainer) ExtendFromSource(st *store.Store, id string) error {
	next, err := st.Checkout(id)
	if err != nil {
		return fmt.Errorf("history: version %s: %w", id, err)
	}
	return m.Extend(id, next)
}

// Timeline assembles the maintained MultiTimeline. The assembly is the same
// mergeSteps that Walk uses, over the same per-step results, so the
// output is bit-identical to a from-scratch rebuild of the same chain.
func (m *TimelineMaintainer) Timeline() *MultiTimeline {
	return mergeSteps(m.first, "", m.results)
}

// Fork returns an independent maintainer sharing the immutable per-step
// results but with private id/result slices, so benchmarks (and speculative
// extensions) can Extend without mutating the original.
func (m *TimelineMaintainer) Fork() *TimelineMaintainer {
	return &TimelineMaintainer{
		base:    m.base,
		ids:     append([]string(nil), m.ids...),
		first:   m.first,
		last:    m.last,
		results: append([]*core.MultiResult(nil), m.results...),
	}
}
