package history

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"charles/internal/core"
	"charles/internal/diff"
	"charles/internal/gen"
	"charles/internal/model"
	"charles/internal/predicate"
	"charles/internal/score"
	"charles/internal/store"
	"charles/internal/table"
)

// walkAll is Walk over every changed numeric attribute, memo-free.
func walkAll(snapshots []*table.Table, base core.Options) (*MultiTimeline, error) {
	return Walk(context.Background(), snapshots, "", base, nil)
}

// walkTarget is the single-target timeline: Walk restricted to target.
func walkTarget(snapshots []*table.Table, target string, base core.Options) (*Timeline, error) {
	mt, err := Walk(context.Background(), snapshots, target, base, nil)
	if err != nil {
		return nil, err
	}
	return mt.Timelines[target], nil
}

// threeSnapshots builds D1→D2→D3: step 1 applies the toy policy (R1–R3),
// step 2 leaves everything unchanged.
func threeSnapshots(t *testing.T) []*table.Table {
	t.Helper()
	d1, d2 := gen.Toy()
	d3 := d2.Clone()
	return []*table.Table{d1, d2, d3}
}

func TestTimelineSummarizesEachStep(t *testing.T) {
	snaps := threeSnapshots(t)
	tl, err := walkTarget(snaps, "bonus", core.DefaultOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Steps) != 2 {
		t.Fatalf("steps = %d", len(tl.Steps))
	}
	if tl.Steps[0].NoChange {
		t.Error("step 0 should carry the policy change")
	}
	if top := tl.Steps[0].Top(); top == nil || top.Size() != 3 {
		t.Errorf("step 0 top summary = %v", tl.Steps[0].Top())
	}
	if !tl.Steps[1].NoChange {
		t.Error("step 1 should be a no-change step")
	}
	if tl.Steps[1].Top() != nil && tl.Steps[1].Top().Size() != 0 {
		t.Error("no-change step should have an empty top summary")
	}
}

func TestTimelineValidation(t *testing.T) {
	d1, _ := gen.Toy()
	if _, err := walkTarget([]*table.Table{d1}, "bonus", core.DefaultOptions("")); err == nil {
		t.Error("single snapshot accepted")
	}
	other := table.MustNew(table.Schema{{Name: "x", Type: table.Int}})
	if _, err := walkTarget([]*table.Table{d1, other}, "bonus", core.DefaultOptions("")); err == nil {
		t.Error("schema drift accepted")
	}
}

func TestDriftDetection(t *testing.T) {
	// D1→D2 applies the policy, D2→D3 applies nothing: activity toggles.
	snaps := threeSnapshots(t)
	tl, err := walkTarget(snaps, "bonus", core.DefaultOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	drifts := tl.Drifts()
	if len(drifts) != 1 {
		t.Fatalf("drifts = %d", len(drifts))
	}
	if drifts[0].Note != "change activity toggled" {
		t.Errorf("drift note = %q", drifts[0].Note)
	}
}

func TestDriftPolicyHeld(t *testing.T) {
	// Apply the same planted policy twice: D1→D2 and D2→D3 should match.
	d, err := gen.Planted(gen.PlantedConfig{N: 500, Seed: 8, Rules: 2, UnchangedFrac: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	// D3: re-apply the truth policy to D2.
	d3 := d.Tgt.Clone()
	preds, _, err := d.Truth.Apply(d.Tgt)
	if err != nil {
		t.Fatal(err)
	}
	col := d3.MustColumn("pay")
	for r := 0; r < d3.NumRows(); r++ {
		if err := col.Set(r, table.F(preds[r])); err != nil {
			t.Fatal(err)
		}
	}
	opts := core.DefaultOptions("pay")
	opts.CondAttrs = d.CondAttrs
	opts.TranAttrs = d.TranAttrs
	tl, err := walkTarget([]*table.Table{d.Src, d.Tgt, d3}, "pay", opts)
	if err != nil {
		t.Fatal(err)
	}
	drifts := tl.Drifts()
	if len(drifts) != 1 {
		t.Fatalf("drifts = %d", len(drifts))
	}
	if !drifts[0].SamePartitioning {
		t.Errorf("partitioning should be stable across identical policy steps: %+v", drifts[0])
	}
}

// TestDriftAtReachesEveryNote walks a hand-built timeline whose adjacent
// steps reach every drift note through DriftAt, and requires Drifts to be
// DriftAt of each adjacent pair in turn.
func TestDriftAtReachesEveryNote(t *testing.T) {
	summary := func(dept string, coef float64) []core.Ranked {
		s := &model.Summary{Target: "pay", CTs: []model.CT{{
			Cond: predicate.Predicate{Atoms: []predicate.Atom{predicate.StrAtom("dept", predicate.Eq, dept)}},
			Tran: model.Transformation{Target: "pay", Inputs: []string{"pay"}, Coef: []float64{coef}},
		}}}
		return []core.Ranked{{Summary: s, Breakdown: &score.Breakdown{}}}
	}
	tl := &Timeline{Target: "pay"}
	for i, ranked := range [][]core.Ranked{
		summary("eng", 1.1), summary("eng", 1.1), summary("eng", 1.2), summary("ops", 1.2),
		nil, nil, {}, {},
	} {
		tl.Steps = append(tl.Steps, Step{From: i, To: i + 1, Ranked: ranked, NoChange: i == 4 || i == 5})
	}
	want := []struct {
		note string
		same bool
	}{
		{"policy held exactly", true},
		{"same partitions, constants changed", true},
		{"policy restructured", false},
		{"change activity toggled", false},
		{"no change in either step", true},
		{"change activity toggled", false},
		{"no summary recovered", false},
	}
	drifts := tl.Drifts()
	if len(drifts) != len(want) {
		t.Fatalf("Drifts returned %d drifts, want %d", len(drifts), len(want))
	}
	for i, w := range want {
		d := tl.DriftAt(i)
		if d.StepA != i || d.StepB != i+1 || d.Note != w.note || d.SamePartitioning != w.same {
			t.Errorf("DriftAt(%d) = %+v, want steps %d→%d, note %q, same partitioning %v", i, d, i, i+1, w.note, w.same)
		}
		if drifts[i] != d {
			t.Errorf("Drifts()[%d] = %+v, DriftAt(%d) = %+v", i, drifts[i], i, d)
		}
	}
}

func TestRender(t *testing.T) {
	snaps := threeSnapshots(t)
	tl, err := walkTarget(snaps, "bonus", core.DefaultOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	out := tl.Render()
	for _, want := range []string{"evolution of bonus", "step 0 → 1", "step 1 → 2", "(no change)", "drift:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestOneSummaryChangeStepNotMarkedNoChange is a regression test for the old
// no-change heuristic (`len(ranked) == 1 && Size() == 0`): a genuine change
// step that happens to rank exactly one summary must not read as no-change.
// The engine's explicit Ranked.NoChange signal is authoritative.
func TestOneSummaryChangeStepNotMarkedNoChange(t *testing.T) {
	d1, d2 := gen.Toy()
	opts := core.DefaultOptions("bonus")
	opts.TopK = 1 // force a one-summary result on a real change step
	tl, err := walkTarget([]*table.Table{d1, d2, d2.Clone()}, "bonus", opts)
	if err != nil {
		t.Fatal(err)
	}
	step := tl.Steps[0]
	if len(step.Ranked) != 1 {
		t.Fatalf("want exactly one ranked summary, got %d", len(step.Ranked))
	}
	if step.Ranked[0].Summary.Size() == 0 {
		t.Fatal("change step produced an empty summary")
	}
	if step.NoChange {
		t.Error("one-summary change step marked NoChange")
	}
	if step.Ranked[0].NoChange {
		t.Error("engine tagged a change result as NoChange")
	}
	// And the genuine no-change step is marked without an engine run.
	quiet := tl.Steps[1]
	if !quiet.NoChange || len(quiet.Ranked) != 0 {
		t.Errorf("no-change step signal: step=%+v", quiet)
	}
}

// TestEmptyRankedStepGuards pins the crash fix: a change step whose engine
// output is empty (no ranked summaries, not NoChange) must render and drift
// without panicking, and the drift carries an explicit note.
func TestEmptyRankedStepGuards(t *testing.T) {
	tl := &Timeline{
		Target: "bonus",
		Steps: []Step{
			{From: 0, To: 1}, // empty Ranked, not NoChange
			{From: 1, To: 2}, // same
		},
	}
	out := tl.Render()
	if !strings.Contains(out, "(no summary recovered)") {
		t.Errorf("render missing empty-step note:\n%s", out)
	}
	drifts := tl.Drifts()
	if len(drifts) != 1 {
		t.Fatalf("drifts = %d", len(drifts))
	}
	if drifts[0].Note != "no summary recovered" {
		t.Errorf("drift note = %q", drifts[0].Note)
	}
	if drifts[0].SamePartitioning {
		t.Error("empty steps cannot claim same partitioning")
	}
	// Mixed: one real step, one empty — also must not panic.
	snaps := threeSnapshots(t)
	real, err := walkTarget(snaps, "bonus", core.DefaultOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	mixed := &Timeline{Target: "bonus", Steps: []Step{real.Steps[0], {From: 1, To: 2}}}
	if out := mixed.Render(); !strings.Contains(out, "(no summary recovered)") {
		t.Errorf("mixed render missing empty-step note:\n%s", out)
	}
	if d := mixed.Drifts(); d[0].Note != "no summary recovered" {
		t.Errorf("mixed drift note = %q", d[0].Note)
	}
}

// chainOpts is the shared base configuration of the chain tests: explicit
// condition pool (dept, grade are the planted policy dimensions) keeps the
// runs fast; everything else stays at the engine defaults.
func chainOpts() core.Options {
	base := core.DefaultOptions("")
	base.CondAttrs = []string{"dept", "grade"}
	return base
}

// equalRanked reports bit-identical rankings: same order, same summaries,
// same breakdowns to the last float.
func equalRanked(a, b []core.Ranked) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].NoChange != b[i].NoChange {
			return false
		}
		if a[i].Summary.Fingerprint() != b[i].Summary.Fingerprint() {
			return false
		}
		if *a[i].Breakdown != *b[i].Breakdown {
			return false
		}
	}
	return true
}

// TestSummarizeAllDifferential pins the parallel multi-target timeline to
// the sequential per-pair, per-target reference loop, bit-identically: same
// attributes, same steps, same rankings, same scores.
func TestSummarizeAllDifferential(t *testing.T) {
	snaps, err := gen.Chain(gen.ChainConfig{N: 80, Steps: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	base := chainOpts()
	base.Workers = 4
	mt, err := walkAll(snaps, base)
	if err != nil {
		t.Fatal(err)
	}

	// Sequential reference: fresh alignment and fresh engine state per
	// (pair, target) — no context sharing, no step parallelism.
	type ref struct {
		ranked map[string][]core.Ranked
	}
	refs := make([]ref, len(snaps)-1)
	for i := 0; i+1 < len(snaps); i++ {
		a, err := diff.Align(snaps[i], snaps[i+1])
		if err != nil {
			t.Fatal(err)
		}
		changed, err := a.ChangedAttrs(core.ChangeTol)
		if err != nil {
			t.Fatal(err)
		}
		refs[i].ranked = map[string][]core.Ranked{}
		for _, attr := range changed {
			col, err := snaps[i].Column(attr)
			if err != nil {
				t.Fatal(err)
			}
			if !col.Type.Numeric() {
				continue
			}
			opts := base
			opts.Target = attr
			opts.Workers = 1
			ranked, err := core.Summarize(snaps[i], snaps[i+1], opts)
			if err != nil {
				t.Fatal(err)
			}
			refs[i].ranked[attr] = ranked
		}
	}

	wantAttrs := map[string]bool{}
	for _, r := range refs {
		for attr := range r.ranked {
			wantAttrs[attr] = true
		}
	}
	if len(mt.Attrs) != len(wantAttrs) {
		t.Fatalf("parallel attrs = %v, reference saw %v", mt.Attrs, wantAttrs)
	}
	for _, attr := range mt.Attrs {
		tl := mt.Timelines[attr]
		if len(tl.Steps) != len(refs) {
			t.Fatalf("%s: %d steps, want %d", attr, len(tl.Steps), len(refs))
		}
		for i, step := range tl.Steps {
			want, changed := refs[i].ranked[attr]
			if !changed {
				if !step.NoChange {
					t.Errorf("%s step %d: reference saw no change, parallel ran the engine", attr, i)
				}
				continue
			}
			if !equalRanked(step.Ranked, want) {
				t.Errorf("%s step %d: parallel ranking differs from sequential reference", attr, i)
			}
		}
	}
}

// TestSummarizeAllEightStepChain is the acceptance-criteria test: an 8-step
// chain with 4 evolving numeric attributes, run concurrently, must build
// each pair's atom cache and split index exactly once across all targets
// (asserted via the engine's process-wide build counters) and match the
// sequential path (Workers=1) bit-identically.
func TestSummarizeAllEightStepChain(t *testing.T) {
	snaps, err := gen.Chain(gen.ChainConfig{N: 100, Steps: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	steps := len(snaps) - 1

	base := chainOpts()
	base.Workers = 4
	c0, i0 := core.AccelBuilds()
	mt, err := walkAll(snaps, base)
	if err != nil {
		t.Fatal(err)
	}
	c1, i1 := core.AccelBuilds()
	if got := c1 - c0; got != uint64(steps) {
		t.Errorf("atom caches built = %d, want exactly one per pair (%d)", got, steps)
	}
	if got := i1 - i0; got != uint64(steps) {
		t.Errorf("split indexes built = %d, want exactly one per pair (%d)", got, steps)
	}
	if len(mt.Attrs) != 4 {
		t.Fatalf("changed numeric attributes = %v, want the 4 planted targets", mt.Attrs)
	}
	engineRuns := 0
	for _, attr := range mt.Attrs {
		for _, step := range mt.Timelines[attr].Steps {
			if len(step.Ranked) > 0 {
				engineRuns++
			}
		}
	}
	if engineRuns <= steps {
		t.Fatalf("expected more engine runs (%d) than pairs (%d) for the amortization claim to be non-trivial", engineRuns, steps)
	}

	seq := chainOpts()
	seq.Workers = 1
	mtSeq, err := walkAll(snaps, seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(mtSeq.Attrs) != len(mt.Attrs) {
		t.Fatalf("sequential attrs %v vs parallel %v", mtSeq.Attrs, mt.Attrs)
	}
	for _, attr := range mt.Attrs {
		p, s := mt.Timelines[attr], mtSeq.Timelines[attr]
		for i := range p.Steps {
			if p.Steps[i].NoChange != s.Steps[i].NoChange || !equalRanked(p.Steps[i].Ranked, s.Steps[i].Ranked) {
				t.Errorf("%s step %d: parallel and sequential outputs differ", attr, i)
			}
		}
	}
	// overtime and longevity skip steps by construction: their timelines
	// must contain genuine NoChange steps.
	for _, attr := range []string{"overtime", "longevity"} {
		tl, ok := mt.Timelines[attr]
		if !ok {
			t.Fatalf("%s missing from timelines (%v)", attr, mt.Attrs)
		}
		quiet := 0
		for _, step := range tl.Steps {
			if step.NoChange {
				quiet++
			}
		}
		if quiet == 0 {
			t.Errorf("%s: expected no-change steps in its timeline", attr)
		}
	}
	// Render must cover every attribute without panicking.
	out := mt.Render()
	for _, attr := range mt.Attrs {
		if !strings.Contains(out, "=== "+attr+" ===") {
			t.Errorf("render missing block for %s", attr)
		}
	}
}

// TestSummarizeAllValidation mirrors the single-target validation contract.
func TestSummarizeAllValidation(t *testing.T) {
	d1, _ := gen.Toy()
	if _, err := walkAll([]*table.Table{d1}, core.DefaultOptions("")); err == nil {
		t.Error("single snapshot accepted")
	}
	other := table.MustNew(table.Schema{{Name: "x", Type: table.Int}})
	if _, err := walkAll([]*table.Table{d1, other}, core.DefaultOptions("")); err == nil {
		t.Error("schema drift accepted")
	}
}

// TestSummarizeTargetMatchesSequential pins the parallel single-target path
// to the sequential reference: engine steps bit-identical, unchanged steps
// short-circuited to NoChange without an engine run.
func TestSummarizeTargetMatchesSequential(t *testing.T) {
	snaps, err := gen.Chain(gen.ChainConfig{N: 60, Steps: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	base := chainOpts()
	base.Workers = 4
	for _, target := range []string{"salary", "overtime"} {
		tl, err := walkTarget(snaps, target, base)
		if err != nil {
			t.Fatal(err)
		}
		if len(tl.Steps) != len(snaps)-1 {
			t.Fatalf("%s: steps = %d", target, len(tl.Steps))
		}
		for i := 0; i+1 < len(snaps); i++ {
			a, err := diff.Align(snaps[i], snaps[i+1])
			if err != nil {
				t.Fatal(err)
			}
			mask, err := a.ChangedMask(target, core.ChangeTol)
			if err != nil {
				t.Fatal(err)
			}
			moved := false
			for _, ch := range mask {
				moved = moved || ch
			}
			step := tl.Steps[i]
			if !moved {
				if !step.NoChange || len(step.Ranked) != 0 {
					t.Errorf("%s step %d: want engine-free NoChange, got %+v", target, i, step)
				}
				continue
			}
			opts := base
			opts.Target = target
			opts.Workers = 1
			want, err := core.SummarizeAligned(a, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !equalRanked(step.Ranked, want) {
				t.Errorf("%s step %d: parallel single-target differs from sequential reference", target, i)
			}
		}
	}
	// overtime changes only on even steps: the timeline must show that.
	tl, err := walkTarget(snaps, "overtime", base)
	if err != nil {
		t.Fatal(err)
	}
	for i, step := range tl.Steps {
		if want := (i+1)%2 == 0; step.NoChange == want {
			t.Errorf("overtime step %d: NoChange = %v", i, step.NoChange)
		}
	}
	// Validation mirrors the batch path.
	if _, err := walkTarget(snaps[:1], "salary", base); err == nil {
		t.Error("single snapshot accepted")
	}
	if _, err := walkTarget(snaps, "ghost", base); err == nil {
		t.Error("unknown target accepted")
	}
	// A categorical target errors up front instead of yielding a plausible
	// all-no-change timeline (the serve layer 400s the same request).
	if _, err := walkTarget(snaps, "dept", base); err == nil {
		t.Error("categorical target accepted")
	}
}

// TestSummarizeChainMatchesSummarizeAll pins the store-backed timeline:
// walking version ids materialized by MaterializeChainContext must yield a
// MultiTimeline bit-identical to checking the snapshots out by hand and
// walking those — and the second walk must be parse-free (served from the
// store's table cache).
func TestSummarizeChainMatchesSummarizeAll(t *testing.T) {
	snaps, err := gen.Chain(gen.ChainConfig{N: 40, Steps: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	parent := ""
	for _, snap := range snaps {
		v, err := st.Commit(snap, parent, "step")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
		parent = v.ID
	}
	base := core.DefaultOptions("")
	base.CondAttrs = []string{"dept", "grade"}
	walkChain := func(ids []string) (*MultiTimeline, error) {
		mats, err := MaterializeChainContext(context.Background(), st, ids)
		if err != nil {
			return nil, err
		}
		return walkAll(mats, base)
	}
	got, err := walkChain(ids)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]*table.Table, len(ids))
	for i, id := range ids {
		if ref[i], err = st.Checkout(id); err != nil {
			t.Fatal(err)
		}
	}
	want, err := walkAll(ref, base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("the materialized chain's walk differs from the walk over the checked-out snapshots")
	}
	parses := st.Stats().Parses
	if _, err := walkChain(ids); err != nil {
		t.Fatal(err)
	}
	if again := st.Stats().Parses; again != parses {
		t.Errorf("second chain walk parsed %d more snapshots, want 0 (cache-served)", again-parses)
	}

	if _, err := walkChain(ids[:1]); err == nil {
		t.Error("single-version chain accepted")
	}
	if _, err := walkChain([]string{"nope", "nope2"}); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("unknown id err = %v, want the id named", err)
	}
}

// TestMaterializeChainMatchesCheckout is the differential of the store's
// rebuild start point: on random mutation chains (cell edits, inserts,
// deletes, adversarial string cells, anchors mid-chain) committed to disk,
// a root → head MaterializeChainContext on one cold store — each version
// rebuilt from its parent's cached blob — must return exactly the tables a
// head → root checkout walk on a second cold store returns, where no
// ancestor is cached and each version is rebuilt from its anchor: schema
// types, values and row order.
func TestMaterializeChainMatchesCheckout(t *testing.T) {
	opts := store.Options{AnchorEvery: 4, TableCache: 64}
	for seed := int64(1); seed <= 3; seed++ {
		dir := t.TempDir()
		st, err := store.OpenWith(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		snaps, err := gen.MutateChain(gen.FuzzConfig{N: 25, Steps: 7, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		parent := ""
		for _, snap := range snaps {
			v, err := st.Commit(snap, parent, "step")
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, v.ID)
			parent = v.ID
		}
		if st.Stats().DeltaPacks == 0 {
			t.Fatalf("seed %d: no delta packs; the rebuild start point is untested", seed)
		}
		st.Close()

		forward, err := store.OpenWith(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MaterializeChainContext(context.Background(), forward, ids)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		backward, err := store.OpenWith(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := len(ids) - 1; i >= 0; i-- {
			want, err := backward.Checkout(ids[i])
			if err != nil {
				t.Fatal(err)
			}
			if !got[i].Equal(want) {
				t.Fatalf("seed %d: materialized version %d (%s) differs from its anchor rebuild", seed, i, ids[i])
			}
			if !got[i].Schema().Equal(want.Schema()) {
				t.Fatalf("seed %d: version %d schema types diverged", seed, i)
			}
		}
		forward.Close()
		backward.Close()
	}
}

// TestMaterializeChainParsesEachVersionOnce pins the walk's cost: a cold
// walk parses each version once, and a repeat walk is all warm table-cache
// clones with no parsing.
func TestMaterializeChainParsesEachVersionOnce(t *testing.T) {
	st, err := store.OpenWith("", store.Options{AnchorEvery: 16, TableCache: 16})
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := gen.Chain(gen.ChainConfig{N: 40, Steps: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	parent := ""
	for _, snap := range snaps {
		v, err := st.Commit(snap, parent, "step")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
		parent = v.ID
	}
	got, err := MaterializeChainContext(context.Background(), st, ids)
	if err != nil {
		t.Fatal(err)
	}
	if parses := st.Stats().Parses; parses != int64(len(ids)) {
		t.Errorf("cold walk parsed %d versions, want %d (each once)", parses, len(ids))
	}
	hitsBefore := st.Stats().CacheHits
	again, err := MaterializeChainContext(context.Background(), st, ids)
	if err != nil {
		t.Fatal(err)
	}
	if parses := st.Stats().Parses; parses != int64(len(ids)) {
		t.Errorf("warm walk parsed %d more versions, want 0", parses-int64(len(ids)))
	}
	if hits := st.Stats().CacheHits; hits < hitsBefore+int64(len(ids)) {
		t.Errorf("warm walk hit the table cache %d times, want ≥ %d (one per version)", hits-hitsBefore, len(ids))
	}
	for i, id := range ids {
		want, err := st.Checkout(id)
		if err != nil {
			t.Fatal(err)
		}
		if !got[i].Equal(want) {
			t.Fatalf("materialized version %d (%s) differs from its checkout", i, id)
		}
		if !again[i].Equal(want) {
			t.Fatalf("warm-walk version %d (%s) differs from its checkout", i, id)
		}
	}
}

// TestSummarizeAllWorkerCountIndependent pins the engine's worker-count
// independence where timelines read it, down to provenance and tie order:
// on every step of gen.Chain seeds 1–3, a one-step Walk —
// whose single engine run gets the whole worker budget — must render in
// full identically for Workers 1, 2 and 8, five runs per parallel count.
func TestSummarizeAllWorkerCountIndependent(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 3; seed++ {
		snaps, err := gen.Chain(gen.ChainConfig{N: 300, Steps: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(snaps); i++ {
			render := func(workers int) string {
				base := core.DefaultOptions("")
				base.Workers = workers
				mt, err := Walk(ctx, snaps[i:i+2], "", base, nil)
				if err != nil {
					t.Fatal(err)
				}
				return renderFull(mt)
			}
			want := render(1)
			for _, workers := range []int{2, 8} {
				for run := 0; run < 5; run++ {
					if got := render(workers); got != want {
						t.Fatalf("seed %d step %d: Workers=%d run %d renders differently from Workers=1:\n%s\nwant\n%s", seed, i, workers, run, got, want)
					}
				}
			}
		}
	}
}

// TestSummarizeTargetRejectsKeyColumn: a key column never moves, so as a
// target it must be rejected up front — with the serve layer's message —
// instead of reading as an all-no-change timeline.
func TestSummarizeTargetRejectsKeyColumn(t *testing.T) {
	schema := table.Schema{
		{Name: "id", Type: table.Int},
		{Name: "dept", Type: table.String},
		{Name: "salary", Type: table.Float},
	}
	var snaps []*table.Table
	for s := 0; s < 3; s++ {
		tb := table.MustNew(schema)
		for i := 0; i < 6; i++ {
			tb.MustAppendRow(table.I(int64(i)), table.S([]string{"eng", "hr"}[i%2]), table.F(float64(1000+100*i+10*s)))
		}
		if err := tb.SetKey("id"); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, tb)
	}
	base := core.DefaultOptions("")
	if _, err := walkTarget(snaps, "id", base); err == nil || !strings.Contains(err.Error(), "unknown target attribute") {
		t.Errorf("key target err = %v, want unknown target attribute", err)
	}
	if _, err := walkTarget(snaps, "dept", base); err == nil || !strings.Contains(err.Error(), "is not numeric") {
		t.Errorf("categorical target err = %v, want not numeric", err)
	}
	if _, err := walkTarget(snaps, "salary", base); err != nil {
		t.Errorf("numeric target: %v", err)
	}
}
