package history

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"charles/internal/core"
	"charles/internal/gen"
	"charles/internal/store"
	"charles/internal/table"
)

// maintainBase is the option set every maintainer test runs under.
// Workers=1 keeps maintained and rebuilt walks on the same sequential
// step pool, so their timelines can be compared bit-for-bit at every
// prefix length.
func maintainBase() core.Options {
	base := core.DefaultOptions("")
	base.Workers = 1
	return base
}

// renderFull serializes every bit of a MultiTimeline the engine produces —
// per-attribute step sequences, full rankings with breakdowns, CT order,
// provenance, and the skipped set — into one deterministic string. Timeline
// equality is compared on these renderings rather than reflect.DeepEqual
// because summaries can legitimately contain NaN constants (a condition
// group empty on one side), and DeepEqual's NaN != NaN would report two
// bit-identical timelines as different.
func renderFull(mt *MultiTimeline) string {
	var b strings.Builder
	fmt.Fprintf(&b, "attrs=%v steps=%d\n", mt.Attrs, mt.Steps)
	for _, k := range sortedKeys(mt.Skipped) {
		fmt.Fprintf(&b, "skip %s=%s\n", k, mt.Skipped[k])
	}
	for _, attr := range mt.Attrs {
		tl := mt.Timelines[attr]
		fmt.Fprintf(&b, "== %s (%s)\n", attr, tl.Target)
		for _, s := range tl.Steps {
			fmt.Fprintf(&b, "step %d->%d nochange=%v\n", s.From, s.To, s.NoChange)
			for _, r := range s.Ranked {
				fmt.Fprintf(&b, " r nochange=%v breakdown=%+v target=%s cond=%v tran=%v cts=",
					r.NoChange, *r.Breakdown, r.Summary.Target, r.Summary.CondAttrs, r.Summary.TranAttrs)
				for _, ct := range r.Summary.CTs {
					fmt.Fprintf(&b, "[%v]", ct)
				}
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// equalTimelines reports bit-identical timelines (NaN-tolerant; see
// renderFull).
func equalTimelines(a, b *MultiTimeline) bool {
	return renderFull(a) == renderFull(b)
}

// commitMutateChain commits a MutateChain-derived lineage into a fresh
// memory store and returns the store, the ids (root → head), and the
// canonical (store-materialized) snapshots. The engine's Align requires a
// fixed entity set, so each fuzz snapshot is projected onto the chain-wide
// common key set — MutateChain's adversarial cell edits survive; its row
// churn (which the engine rejects by contract) does not. A projected
// snapshot that dedups to an earlier version is skipped rather than
// committed (content addressing would report a lineage conflict).
func commitMutateChain(t *testing.T, cfg gen.FuzzConfig) (*store.Store, []string, []*table.Table) {
	t.Helper()
	snaps, err := gen.MutateChain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	common := map[string]int{}
	for _, snap := range snaps {
		for r := 0; r < snap.NumRows(); r++ {
			k, err := snap.KeyOf(r)
			if err != nil {
				t.Fatal(err)
			}
			common[k]++
		}
	}
	st, err := store.OpenWith("", store.Options{AnchorEvery: 4, TableCache: 64})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	parent := ""
	for _, snap := range snaps {
		keep := make([]bool, snap.NumRows())
		for r := range keep {
			k, err := snap.KeyOf(r)
			if err != nil {
				t.Fatal(err)
			}
			keep[r] = common[k] == len(snaps)
		}
		proj, err := snap.Filter(keep)
		if err != nil {
			t.Fatal(err)
		}
		if err := proj.SetKey("id"); err != nil {
			t.Fatal(err)
		}
		v, err := st.Commit(proj, parent, "step")
		if errors.Is(err, store.ErrLineageConflict) {
			continue // projection erased this step's visible change
		}
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
		parent = v.ID
	}
	if len(ids) < 3 {
		t.Fatalf("projected chain too short: %d versions", len(ids))
	}
	mats, err := MaterializeChainContext(context.Background(), st, ids)
	if err != nil {
		t.Fatal(err)
	}
	return st, ids, mats
}

// TestTimelineMaintainerDifferential is the incremental-vs-rebuild
// acceptance differential: across 5 MutateChain seeds, a maintainer seeded
// on the 2-version prefix and extended one commit at a time must produce,
// at every prefix length, a MultiTimeline bit-identical to a from-scratch
// Walk over the same snapshots.
func TestTimelineMaintainerDifferential(t *testing.T) {
	base := maintainBase()
	for seed := int64(1); seed <= 5; seed++ {
		st, ids, mats := commitMutateChain(t, gen.FuzzConfig{N: 20, Steps: 5, Seed: seed})
		m, err := NewTimelineMaintainerContext(context.Background(), mats[:2], ids[:2], base)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for k := 2; k <= len(ids); k++ {
			if k > 2 {
				if err := m.ExtendFromSource(st, ids[k-1]); err != nil {
					t.Fatalf("seed %d: extend to %s: %v", seed, ids[k-1], err)
				}
			}
			want, err := walkAll(mats[:k], base)
			if err != nil {
				t.Fatalf("seed %d: rebuild at %d: %v", seed, k, err)
			}
			if got := m.Timeline(); !equalTimelines(got, want) {
				t.Fatalf("seed %d: maintained timeline at %d versions differs from the Walk rebuild", seed, k)
			}
			if m.Head() != ids[k-1] || m.Steps() != k-1 {
				t.Fatalf("seed %d: head=%s steps=%d, want %s/%d", seed, m.Head(), m.Steps(), ids[k-1], k-1)
			}
		}
	}
}

// TestTimelineMaintainerSchemaChangeFallback pins the rebuild-fallback
// contract: extending across a schema change fails, leaves the maintainer
// unchanged, and a fresh maintainer over the new-schema suffix matches the
// from-scratch rebuild of that suffix.
func TestTimelineMaintainerSchemaChangeFallback(t *testing.T) {
	base := maintainBase()
	st, ids, mats := commitMutateChain(t, gen.FuzzConfig{N: 15, Steps: 3, Seed: 9})
	m, err := NewTimelineMaintainerContext(context.Background(), mats, ids, base)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Timeline()

	// Commit a snapshot with a different schema (the toy dataset) as a
	// child of the current head — the store accepts it (full pack), but
	// Align cannot pair the schemas, so the incremental extend must fail.
	d1, d2 := gen.Toy()
	v1, err := st.Commit(d1, ids[len(ids)-1], "schema change")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ExtendFromSource(st, v1.ID); err == nil {
		t.Fatal("extend across a schema change succeeded, want error")
	} else if !strings.Contains(err.Error(), "extend") {
		t.Fatalf("extend error = %v, want the extend step named", err)
	}
	if m.Head() != ids[len(ids)-1] || m.Steps() != len(ids)-1 {
		t.Fatalf("failed extend mutated the maintainer: head=%s steps=%d", m.Head(), m.Steps())
	}
	if !equalTimelines(m.Timeline(), before) {
		t.Fatal("failed extend changed the maintained timeline")
	}

	// The fallback path: rebuild over the consistent new-schema suffix.
	v2, err := st.Commit(d2, v1.ID, "toy policy applied")
	if err != nil {
		t.Fatal(err)
	}
	sufIDs := []string{v1.ID, v2.ID}
	suf, err := MaterializeChainContext(context.Background(), st, sufIDs)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := NewTimelineMaintainerContext(context.Background(), suf, sufIDs, base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := walkAll(suf, base)
	if err != nil {
		t.Fatal(err)
	}
	if !equalTimelines(rebuilt.Timeline(), want) {
		t.Fatal("rebuilt maintainer differs from the Walk over the new-schema suffix")
	}
	if rebuilt.Head() != v2.ID {
		t.Fatalf("rebuilt head = %s, want %s", rebuilt.Head(), v2.ID)
	}
}

// TestTimelineMaintainerForkIsolation pins Fork: extending a fork leaves
// the original untouched.
func TestTimelineMaintainerForkIsolation(t *testing.T) {
	base := maintainBase()
	st, ids, mats := commitMutateChain(t, gen.FuzzConfig{N: 15, Steps: 4, Seed: 11})
	m, err := NewTimelineMaintainerContext(context.Background(), mats[:len(mats)-1], ids[:len(ids)-1], base)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Timeline()
	f := m.Fork()
	if err := f.ExtendFromSource(st, ids[len(ids)-1]); err != nil {
		t.Fatal(err)
	}
	if f.Head() != ids[len(ids)-1] || m.Head() == f.Head() {
		t.Fatalf("fork head = %s, original head = %s", f.Head(), m.Head())
	}
	if !equalTimelines(m.Timeline(), before) {
		t.Fatal("extending the fork mutated the original maintainer")
	}
}

// TestTimelineMaintainerValidation pins the constructor's input contract.
func TestTimelineMaintainerValidation(t *testing.T) {
	base := maintainBase()
	d1, d2 := gen.Toy()
	if _, err := NewTimelineMaintainerContext(context.Background(), []*table.Table{d1, d2}, []string{"only-one"}, base); err == nil {
		t.Error("mismatched snapshots/ids accepted")
	}
	if _, err := NewTimelineMaintainerContext(context.Background(), []*table.Table{d1}, []string{"a"}, base); err == nil {
		t.Error("single-snapshot seed accepted")
	}
}

// TestAdvance pins the one rule that moves a maintainer to a new head: a
// maintainer whose head is on the lineage is extended on a fork (the input
// is untouched), any other is rebuilt, both with every engine run through
// the memo as its step's position in the lineage, and a step that will not
// extend never leaves a half-extended maintainer behind.
func TestAdvance(t *testing.T) {
	ctx := context.Background()
	base := maintainBase()
	snaps, err := gen.Chain(gen.ChainConfig{N: 30, Steps: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	commit := func(tb *table.Table, parent string) string {
		t.Helper()
		v, err := st.Commit(tb, parent, "step")
		if err != nil {
			t.Fatal(err)
		}
		return v.ID
	}
	var ids []string
	parent := ""
	for _, snap := range snaps {
		parent = commit(snap, parent)
		ids = append(ids, parent)
	}
	// matches requires m's timeline to equal a from-scratch walk of ids.
	matches := func(m *TimelineMaintainer, ids []string) {
		t.Helper()
		mats, err := MaterializeChainContext(ctx, st, ids)
		if err != nil {
			t.Fatal(err)
		}
		want, err := walkAll(mats, base)
		if err != nil {
			t.Fatal(err)
		}
		if m.Head() != ids[len(ids)-1] || !equalTimelines(m.Timeline(), want) {
			t.Fatalf("advanced to %s: timeline differs from a walk of %v", m.Head(), ids)
		}
	}
	memoRuns, memoSteps := 0, map[int]bool{}
	memo := func(i int, opts core.Options, run func() ([]core.Ranked, error)) ([]core.Ranked, error) {
		memoRuns++
		memoSteps[i] = true
		return run()
	}

	m, extended, err := Advance(ctx, nil, st, ids[:3], base, memo)
	if err != nil || extended {
		t.Fatalf("seed from nil: extended=%v err=%v, want a rebuild", extended, err)
	}
	if memoRuns == 0 {
		t.Error("the seed walk bypassed the memo")
	}
	matches(m, ids[:3])

	runs := memoRuns
	clear(memoSteps)
	next, extended, err := Advance(ctx, m, st, ids, base, memo)
	if err != nil || !extended {
		t.Fatalf("head on the lineage: extended=%v err=%v, want an extension", extended, err)
	}
	if memoRuns == runs {
		t.Error("the extension bypassed the memo")
	}
	if want := map[int]bool{2: true, 3: true}; !reflect.DeepEqual(memoSteps, want) {
		t.Errorf("extension ran engine steps %v through the memo, want the new steps' positions in ids %v", memoSteps, want)
	}
	if m.Head() != ids[2] || m.Steps() != 2 {
		t.Fatalf("Advance modified its input: head=%s steps=%d", m.Head(), m.Steps())
	}
	matches(next, ids)

	// A branch off ids[1]: the maintainer's head is not on its lineage.
	br := snaps[2].Clone()
	salary := br.MustColumn("salary")
	if err := salary.Set(0, table.F(salary.Float(0)+1)); err != nil {
		t.Fatal(err)
	}
	brIDs := []string{ids[0], ids[1], commit(br, ids[1])}
	rebuilt, extended, err := Advance(ctx, next, st, brIDs, base, nil)
	if err != nil || extended {
		t.Fatalf("branch switch: extended=%v err=%v, want a rebuild", extended, err)
	}
	matches(rebuilt, brIDs)

	// Two versions on top of m's head, the second in another schema: the
	// first extends, the second will not, and the rebuild cannot align it
	// either — an error, with m still where it was.
	toy, _ := gen.Toy()
	bad := append(append([]string(nil), ids...), commit(toy, ids[len(ids)-1]))
	if _, _, err := Advance(ctx, m, st, bad, base, nil); err == nil {
		t.Fatal("advance across a schema change succeeded, want error")
	}
	if m.Head() != ids[2] || m.Steps() != 2 {
		t.Fatalf("failed advance left m half-extended: head=%s steps=%d", m.Head(), m.Steps())
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := Advance(cancelled, m, st, ids, base, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled advance err = %v, want context.Canceled", err)
	}
}
