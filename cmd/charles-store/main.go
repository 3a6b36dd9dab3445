// Command charles-store manages snapshot version stores and summarizes
// changes between stored versions — the ChARLES engine bolted onto an
// OrpheusDB-style lineage.
//
// Usage:
//
//	charles-store -dir .charles commit   -csv 2016.csv -key name [-parent <id>] [-m "2016 snapshot"]
//	charles-store -dir .charles log
//	charles-store -dir .charles checkout -id <id> -out snapshot.csv
//	charles-store -dir .charles changes  -id <id>
//	charles-store -dir .charles diff      -from <id> -to <id> -target bonus
//	charles-store -dir .charles summarize -from <id> -to <id> -target bonus [-alpha 0.5] [-topk 10]
//	charles-store -dir .charles timeline  [-head <id>] [-target bonus] [-alpha 0.5] [-topk 10]
//	charles-store -dir .charles timeline  -follow [-interval 2s]
//	charles-store -dir .charles stats
//	charles-store -dir .charles gc
//	charles-store -dir .charles verify
//	charles-store -dir .charles repair
//
// Multi-tenant mode: -hub HUBDIR addresses one shard of a store hub
// instead of a standalone store; -tenant/-dataset pick the shard (both
// default to "default", so a hub opened on a fresh directory behaves like
// a single store). Every subcommand above works per-shard, plus:
//
//	charles-store -hub .charles-hub datasets              list tenant/dataset pairs
//	charles-store -hub .charles-hub -tenant acme -dataset payroll log
//	charles-store -hub .charles-hub -all-datasets verify  sweep every shard
//	charles-store -hub .charles-hub -all-datasets gc
//	charles-store -hub .charles-hub -all-datasets repair
//
// Global flags are recognized anywhere on the command line, in all four
// spellings (-dir VALUE, -dir=VALUE, --dir VALUE, --dir=VALUE).
//
// Versions are stored as delta-encoded pack files (full anchors every few
// commits); changes prints a version's decoded delta ops straight from its
// pack, and diff aligns the two versions' checkouts. stats reports pack counts, on-disk vs logical bytes, and the
// checkout-cache counters, and gc reclaims legacy per-version CSVs left by
// migration plus orphaned packs.
//
// timeline -follow keeps watching after the initial render: the store is
// re-opened every -interval to observe commits made by other processes, and
// each new commit advances an incrementally maintained timeline by one
// engine step (never a full re-walk), printing just the new step.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	charles "charles"
	"charles/internal/cliflag"
	"charles/internal/core"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	fs := flag.NewFlagSet("charles-store", flag.ExitOnError)
	dir := fs.String("dir", ".charles-store", "store directory (single-store mode)")
	hubDir := fs.String("hub", "", "hub root directory (multi-tenant mode; overrides -dir)")
	tenant := fs.String("tenant", "default", "tenant to address (with -hub)")
	dataset := fs.String("dataset", "default", "dataset to address (with -hub)")
	allDatasets := fs.Bool("all-datasets", false, "with -hub: make verify/gc/repair sweep every dataset")
	sub, rest, err := cliflag.ParseGlobal(fs, os.Args[1:])
	if err != nil {
		fatal(err)
	}
	if sub == "" {
		usage()
	}
	if *hubDir != "" {
		runHub(*hubDir, *tenant, *dataset, *allDatasets, sub, rest)
		return
	}
	if sub == "datasets" || *allDatasets {
		fatal(fmt.Errorf("%s needs -hub HUBDIR", sub))
	}
	st, err := charles.OpenStore(*dir)
	if err != nil {
		fatal(err)
	}
	dispatch(st, reopener(*dir), sub, rest)
}

// reopenFunc opens a fresh view of a store directory — how timeline -follow
// observes commits made by other processes, whose manifests an already-open
// handle cannot see.
type reopenFunc func() (*charles.VersionStore, error)

func reopener(dir string) reopenFunc {
	return func() (*charles.VersionStore, error) { return charles.OpenStore(dir) }
}

// runHub executes sub against one shard of a hub — or, for datasets and
// the -all-datasets sweeps, against the hub as a whole.
func runHub(hubDir, tenant, dataset string, all bool, sub string, rest []string) {
	h, err := charles.OpenHub(hubDir)
	if err != nil {
		fatal(err)
	}
	defer h.Close()
	switch {
	case sub == "datasets":
		cmdDatasets(h)
		return
	case all && sub == "verify":
		cmdVerifyAll(h)
		return
	case all && sub == "gc":
		cmdGCAll(h)
		return
	case all && sub == "repair":
		cmdRepairAll(h)
		return
	case all:
		fatal(fmt.Errorf("-all-datasets only applies to verify, gc and repair, not %q", sub))
	}
	st, release, err := h.Acquire(tenant, dataset)
	if err != nil {
		fatal(err)
	}
	defer release()
	// Follow mode re-opens the shard's own directory (hub shards live at
	// HUBDIR/tenant/dataset) so commits from other processes are seen.
	dispatch(st, reopener(filepath.Join(hubDir, tenant, dataset)), sub, rest)
}

// dispatch runs one subcommand against one store — standalone or a hub
// shard, the commands don't care. reopen is only used by timeline -follow.
func dispatch(st *charles.VersionStore, reopen reopenFunc, sub string, rest []string) {
	switch sub {
	case "commit":
		cmdCommit(st, rest)
	case "log":
		cmdLog(st)
	case "checkout":
		cmdCheckout(st, rest)
	case "changes":
		cmdChanges(st, rest)
	case "diff":
		cmdDiff(st, rest)
	case "summarize":
		cmdSummarize(st, rest)
	case "timeline":
		cmdTimeline(os.Stdout, st, reopen, rest)
	case "stats":
		cmdStats(st)
	case "gc":
		cmdGC(st)
	case "verify":
		cmdVerify(st)
	case "repair":
		cmdRepair(st)
	default:
		fmt.Fprintf(os.Stderr, "charles-store: unknown subcommand %q\n", sub)
		usage()
	}
}

// cmdDatasets lists every tenant/dataset pair the hub knows about — open
// shards and on-disk ones alike.
func cmdDatasets(h *charles.StoreHub) {
	refs, err := h.Datasets()
	if err != nil {
		fatal(err)
	}
	for _, ref := range refs {
		fmt.Printf("%s/%s\n", ref.Tenant, ref.Dataset)
	}
}

// sweepKeys orders a sweep's per-shard reports for stable output.
func sweepKeys[R any](reps map[string]R) []string {
	keys := make([]string, 0, len(reps))
	for k := range reps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// cmdVerifyAll fscks every shard of the hub and exits 1 when any fails,
// so scripts and CI can gate on a fully clean hub.
func cmdVerifyAll(h *charles.StoreHub) {
	reps, err := h.VerifyAll()
	bad := 0
	for _, key := range sweepKeys(reps) {
		rep := reps[key]
		fmt.Printf("%s: verified %d/%d version(s)\n", key, rep.Verified, rep.Versions)
		for _, s := range rep.StrayFiles {
			fmt.Printf("%s: stray %s\n", key, s)
		}
		for _, iss := range rep.Issues {
			fmt.Fprintf(os.Stderr, "%s: corrupt %s: %s\n", key, iss.Version, iss.Problem)
			bad++
		}
	}
	if err != nil {
		fatal(err)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "charles-store: %d version(s) failed verification; run repair to quarantine them\n", bad)
		os.Exit(1)
	}
}

// cmdGCAll reclaims legacy CSVs, orphaned packs and stale temp files in
// every shard.
func cmdGCAll(h *charles.StoreHub) {
	reps, err := h.GCAll()
	for _, key := range sweepKeys(reps) {
		rep := reps[key]
		fmt.Printf("%s: removed %d legacy CSV file(s), %d orphaned pack(s), %d stale temp file(s); reclaimed %d bytes\n",
			key, rep.LegacyFiles, rep.OrphanPacks, rep.TempFiles, rep.BytesReclaimed)
	}
	if err != nil {
		fatal(err)
	}
}

// cmdRepairAll quarantines unverifiable data in every shard. Quarantine
// directories stay inside their own shard — a sweep never moves files
// across shards.
func cmdRepairAll(h *charles.StoreHub) {
	reps, err := h.RepairAll()
	for _, key := range sweepKeys(reps) {
		rep := reps[key]
		if len(rep.Dropped) == 0 && len(rep.Quarantined) == 0 {
			fmt.Printf("%s: healthy\n", key)
			continue
		}
		fmt.Printf("%s: dropped %d version(s), quarantined %d file(s) into %s\n",
			key, len(rep.Dropped), len(rep.Quarantined), rep.QuarantineDir)
	}
	if err != nil {
		fatal(err)
	}
}

func cmdCommit(st *charles.VersionStore, args []string) {
	fs := flag.NewFlagSet("commit", flag.ExitOnError)
	csvPath := fs.String("csv", "", "snapshot CSV to commit")
	key := fs.String("key", "", "comma-separated primary-key column(s)")
	parent := fs.String("parent", "", "parent version id (empty for a root)")
	msg := fs.String("m", "", "commit message")
	mustParse(fs, args)
	if *csvPath == "" || *key == "" {
		fatal(fmt.Errorf("commit needs -csv and -key"))
	}
	t, err := charles.LoadCSV(*csvPath, splitList(*key)...)
	if err != nil {
		fatal(err)
	}
	v, err := st.Commit(t, *parent, *msg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("committed %s (%d rows, %d cols, seq %d)\n", v.ID, v.Rows, v.Cols, v.Seq)
}

func cmdLog(st *charles.VersionStore) {
	for _, v := range st.Log() {
		parent := v.Parent
		if parent == "" {
			parent = "-"
		}
		fmt.Printf("%s  seq=%-3d parent=%-12s rows=%-7d %s\n", v.ID, v.Seq, parent, v.Rows, v.Message)
	}
}

func cmdCheckout(st *charles.VersionStore, args []string) {
	fs := flag.NewFlagSet("checkout", flag.ExitOnError)
	id := fs.String("id", "", "version id")
	out := fs.String("out", "", "output CSV path")
	mustParse(fs, args)
	if *id == "" || *out == "" {
		fatal(fmt.Errorf("checkout needs -id and -out"))
	}
	t, err := st.Checkout(*id)
	if err != nil {
		fatal(err)
	}
	if err := charles.SaveCSV(*out, t); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d rows)\n", *out, t.NumRows())
}

// cmdChanges prints a version's decoded delta ops straight from its pack —
// no snapshot reconstruction, no alignment.
func cmdChanges(st *charles.VersionStore, args []string) {
	fs := flag.NewFlagSet("changes", flag.ExitOnError)
	id := fs.String("id", "", "version id")
	mustParse(fs, args)
	if *id == "" {
		fatal(fmt.Errorf("changes needs -id"))
	}
	cs, err := st.Changes(*id)
	if err != nil {
		fatal(err)
	}
	if cs.Materialized {
		fmt.Printf("%s is materialized (full snapshot): no delta ops; use diff against its parent\n", cs.Version)
		return
	}
	fmt.Printf("%s vs parent %s:\n", cs.Version, cs.Base)
	for _, k := range cs.Removed {
		fmt.Printf("  - %s\n", k)
	}
	for _, ins := range cs.Inserted {
		fmt.Printf("  + %s  %s\n", ins.Key, strings.Join(ins.Cells, ","))
	}
	for _, p := range cs.Patched {
		fmt.Printf("  ~ %s ", p.Key)
		for i, ci := range p.Cols {
			if ci < 0 || ci >= len(cs.Columns) {
				// Same verdict the serve endpoint gives: an op pointing
				// beyond the header is corruption, not data.
				fatal(fmt.Errorf("version %s: patch column %d beyond header (corrupt store)", cs.Version, ci))
			}
			fmt.Printf(" %s=%q", cs.Columns[ci], p.Vals[i])
		}
		fmt.Println()
	}
	fmt.Printf("%d removed, %d inserted, %d patched\n", len(cs.Removed), len(cs.Inserted), len(cs.Patched))
}

func cmdDiff(st *charles.VersionStore, args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	from := fs.String("from", "", "source version id")
	to := fs.String("to", "", "target version id")
	target := fs.String("target", "", "attribute to diff (empty = all)")
	mustParse(fs, args)
	if *from == "" || *to == "" {
		fatal(fmt.Errorf("diff needs -from and -to"))
	}
	res, _, err := st.DiffResult(*from, *to, core.ChangeTol)
	if err != nil {
		fatal(err)
	}
	if *target != "" {
		if !res.HasColumn(*target) {
			fatal(fmt.Errorf("no column %q", *target))
		}
		changes := res.ChangesFor(*target)
		for _, ch := range changes {
			fmt.Printf("%s: %s %v -> %v\n", ch.Key, ch.Attr, ch.Old, ch.New)
		}
		fmt.Printf("%d changed cells of %s\n", len(changes), *target)
		return
	}
	if len(res.Removed) > 0 {
		fmt.Printf("removed entities: %v\n", res.Removed)
	}
	if len(res.Inserted) > 0 {
		fmt.Printf("inserted entities: %v\n", res.Inserted)
	}
	fmt.Printf("update distance: %d cell modifications across %v\n", res.UpdateDistance, res.ChangedAttrs)
}

func cmdSummarize(st *charles.VersionStore, args []string) {
	fs := flag.NewFlagSet("summarize", flag.ExitOnError)
	from := fs.String("from", "", "source version id")
	to := fs.String("to", "", "target version id")
	target := fs.String("target", "", "numeric attribute to explain")
	alpha := fs.Float64("alpha", 0.5, "accuracy weight α")
	topk := fs.Int("topk", 10, "summaries to return")
	tree := fs.Bool("tree", false, "render the top summary as a tree")
	mustParse(fs, args)
	if *from == "" || *to == "" || *target == "" {
		fatal(fmt.Errorf("summarize needs -from, -to and -target"))
	}
	opts := charles.DefaultOptions(*target)
	opts.Alpha = *alpha
	opts.TopK = *topk
	ranked, err := st.Summarize(*from, *to, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Print(charles.RenderRanked(ranked))
	if *tree && len(ranked) > 0 {
		fmt.Print(charles.RenderTree(ranked[0].Summary))
	}
}

// cmdTimeline checks the lineage out root→head and renders each changed
// numeric attribute's timeline (only -target's, when given). With -follow
// it then keeps watching: the store is re-opened every -interval, and each
// new commit extends an incrementally maintained timeline by one engine
// step, printing just that step.
func cmdTimeline(w io.Writer, st *charles.VersionStore, reopen reopenFunc, args []string) {
	fs := flag.NewFlagSet("timeline", flag.ExitOnError)
	head := fs.String("head", "", "head version id (default: latest commit)")
	target := fs.String("target", "", "render only this attribute's timeline")
	alpha := fs.Float64("alpha", 0.5, "accuracy weight α")
	topk := fs.Int("topk", 10, "summaries per step")
	follow := fs.Bool("follow", false, "keep watching for new commits and render each new step")
	interval := fs.Duration("interval", 2*time.Second, "poll interval with -follow")
	mustParse(fs, args)
	base := charles.DefaultOptions("")
	base.Alpha = *alpha
	base.TopK = *topk
	if *follow {
		if *head != "" || *target != "" {
			fatal(fmt.Errorf("timeline -follow tracks the latest head across all attributes; drop -head/-target"))
		}
		followTimeline(w, reopen, base, *interval)
		return
	}
	id := *head
	if id == "" {
		hv, err := st.Head()
		if err != nil {
			fatal(err)
		}
		id = hv.ID
	}
	ids, err := lineage(st, id)
	if err != nil {
		fatal(err)
	}
	if len(ids) < 2 {
		fatal(fmt.Errorf("timeline needs a lineage of at least 2 versions, head %s has %d", id, len(ids)))
	}
	ctx := context.Background()
	snaps, err := charles.MaterializeVersions(ctx, st, ids)
	if err != nil {
		fatal(err)
	}
	mt, err := charles.SummarizeTimeline(ctx, snaps, *target, base)
	if err != nil {
		fatal(err)
	}
	if *target != "" {
		fmt.Fprint(w, mt.Timelines[*target].Render())
		return
	}
	fmt.Fprint(w, mt.Render())
}

// lineage returns the version ids of head's chain, root → head.
func lineage(st *charles.VersionStore, head string) ([]string, error) {
	chain, err := st.Chain(head)
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(chain))
	for i, v := range chain {
		ids[i] = v.ID
	}
	return ids, nil
}

// followTimeline tails a store's lineage forever: render the timeline as it
// stands, then poll for new commits and advance a TimelineMaintainer one
// engine step per commit — never re-walking the chain — printing each new
// step as it lands. Runs until interrupted.
func followTimeline(w io.Writer, reopen reopenFunc, base charles.Options, interval time.Duration) {
	var m *charles.TimelineMaintainer
	last := ""
	for first := true; ; first = false {
		if !first {
			time.Sleep(interval)
		}
		st, err := reopen()
		if err != nil {
			fmt.Fprintln(os.Stderr, "charles-store: follow:", err)
			continue
		}
		m, last = followOnce(w, st, m, last, base, first)
		st.Close()
	}
}

// followOnce advances the maintained timeline to st's current head and
// returns the maintainer and head id for the next poll. An extension prints
// one block per new commit; first sight of a lineage, a branch switch, or a
// step that would not extend prints the whole rebuilt timeline.
func followOnce(w io.Writer, st *charles.VersionStore, m *charles.TimelineMaintainer, last string, base charles.Options, first bool) (*charles.TimelineMaintainer, string) {
	hv, err := st.Head()
	if err != nil {
		if first {
			fmt.Fprintln(w, "waiting for the first commit...")
		}
		return m, last
	}
	if hv.ID == last {
		return m, last
	}
	ids, err := lineage(st, hv.ID)
	if err != nil {
		fmt.Fprintln(os.Stderr, "charles-store: follow:", err)
		return m, last
	}
	if len(ids) < 2 {
		fmt.Fprintf(w, "head %s: waiting for a second version to summarize\n", hv.ID)
		return nil, hv.ID
	}
	next, extended, err := charles.AdvanceTimeline(context.Background(), m, st, ids, base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "charles-store: follow:", err)
		return nil, hv.ID
	}
	if !extended {
		fmt.Fprint(w, next.Timeline().Render())
		return next, hv.ID
	}
	mt := next.Timeline()
	for k := slices.Index(ids, m.Head()) + 1; k < len(ids); k++ {
		renderNewStep(w, mt, ids[k], k)
	}
	return next, hv.ID
}

// renderNewStep prints step k of mt, the step ending at version id: one
// block per attribute that has changed by then, with its top summary's CTs,
// plus the drift note when the step's policy moved against the previous
// one.
func renderNewStep(w io.Writer, mt *charles.MultiTimeline, id string, k int) {
	fmt.Fprintf(w, "\n[%s] step %d\n", id, k)
	for _, attr := range mt.Attrs {
		tl := mt.Timelines[attr]
		if !tl.ChangedBy(k) {
			continue
		}
		s := tl.Steps[k-1]
		switch {
		case s.NoChange:
			fmt.Fprintf(w, "  %s: (no change)\n", attr)
		case len(s.Ranked) == 0:
			fmt.Fprintf(w, "  %s: (no summary recovered)\n", attr)
		default:
			top := s.Ranked[0]
			fmt.Fprintf(w, "  %s: score %.1f%%\n", attr, top.Breakdown.Score*100)
			for _, ct := range top.Summary.CTs {
				fmt.Fprintf(w, "    %s\n", ct)
			}
			if k > 1 {
				fmt.Fprintf(w, "    drift vs step %d: %s\n", k-2, tl.DriftAt(k-2).Note)
			}
		}
	}
}

// cmdStats prints the pack-storage and checkout-cache counters.
func cmdStats(st *charles.VersionStore) {
	s := st.Stats()
	fmt.Printf("versions:      %d\n", s.Versions)
	fmt.Printf("packs:         %d full + %d delta\n", s.FullPacks, s.DeltaPacks)
	fmt.Printf("pack bytes:    %d\n", s.PackBytes)
	fmt.Printf("logical bytes: %d\n", s.LogicalBytes)
	if s.PackBytes > 0 {
		fmt.Printf("compression:   %.2fx\n", s.Compression)
	}
	fmt.Printf("checkout cache: %d/%d entries, %d hits, %d misses, %d parses\n",
		s.CacheEntries, s.CacheCapacity, s.CacheHits, s.CacheMisses, s.Parses)
}

// cmdGC reclaims migrated legacy CSVs and orphaned pack files.
func cmdGC(st *charles.VersionStore) {
	rep, err := st.GC()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("removed %d legacy CSV file(s), %d orphaned pack(s) and %d stale temp file(s), reclaimed %d bytes\n",
		rep.LegacyFiles, rep.OrphanPacks, rep.TempFiles, rep.BytesReclaimed)
}

// cmdVerify runs the fsck-style store walk and exits 1 when anything fails
// verification, so scripts (and CI) can gate on a clean store.
func cmdVerify(st *charles.VersionStore) {
	rep, err := st.Verify()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("verified %d/%d version(s)\n", rep.Verified, rep.Versions)
	for _, s := range rep.StrayFiles {
		fmt.Printf("stray: %s (unreferenced; gc reclaims, repair quarantines)\n", s)
	}
	if rep.Clean() {
		return
	}
	for _, iss := range rep.Issues {
		fmt.Fprintf(os.Stderr, "corrupt: %s: %s\n", iss.Version, iss.Problem)
	}
	fmt.Fprintf(os.Stderr, "charles-store: %d version(s) failed verification; run repair to quarantine them\n", len(rep.Issues))
	os.Exit(1)
}

// cmdRepair drops unverifiable versions (and their dependents) from the
// manifest and moves their packs — plus any strays — into quarantine/.
func cmdRepair(st *charles.VersionStore) {
	rep, err := st.Repair()
	if err != nil {
		fatal(err)
	}
	for _, id := range rep.Dropped {
		fmt.Printf("dropped %s\n", id)
	}
	for _, f := range rep.Quarantined {
		fmt.Printf("quarantined %s\n", f)
	}
	if len(rep.Dropped) == 0 && len(rep.Quarantined) == 0 {
		fmt.Println("store is healthy; nothing to repair")
		return
	}
	fmt.Printf("dropped %d version(s), quarantined %d file(s) into %s\n",
		len(rep.Dropped), len(rep.Quarantined), rep.QuarantineDir)
}

func splitList(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func mustParse(fs *flag.FlagSet, args []string) {
	if err := fs.Parse(args); err != nil {
		fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: charles-store [-dir DIR | -hub HUBDIR [-tenant T] [-dataset D]] SUBCOMMAND [flags]
  subcommands: commit log checkout changes diff summarize timeline stats gc verify repair
  hub only:    datasets; -all-datasets makes verify/gc/repair sweep every shard`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "charles-store:", err)
	os.Exit(1)
}
