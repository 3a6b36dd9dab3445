// Command charles summarizes the changes between two CSV snapshots of a
// relational table — the CLI equivalent of the paper's demo GUI (steps
// 1–10): load two versions, pick a target attribute, optionally tune the
// parameters, and get ranked change summaries with tree and treemap views.
//
// Usage:
//
//	charles -source 2016.csv -target-file 2017.csv -key name -target bonus
//	        [-c 3] [-t 2] [-alpha 0.5] [-topk 10] [-cond edu,exp] [-tran bonus]
//	        [-tree] [-treemap] [-suggest]
//
// The timeline subcommand summarizes a whole snapshot *sequence* instead of
// one pair, running consecutive steps in parallel and covering every changed
// numeric attribute (or just -target when given):
//
//	charles timeline -snapshots 2015.csv,2016.csv,2017.csv -key name
//	        [-target bonus] [-c 3] [-t 2] [-alpha 0.5] [-topk 10] [-workers N]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	charles "charles"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "timeline" {
		runTimeline(os.Args[2:])
		return
	}
	var (
		sourcePath = flag.String("source", "", "source snapshot CSV (earlier version)")
		targetPath = flag.String("target-file", "", "target snapshot CSV (later version)")
		key        = flag.String("key", "", "comma-separated primary-key column(s)")
		target     = flag.String("target", "", "numeric target attribute to explain")
		condList   = flag.String("cond", "", "comma-separated condition attributes (default: setup assistant)")
		tranList   = flag.String("tran", "", "comma-separated transformation attributes (default: setup assistant)")
		c          = flag.Int("c", 3, "max condition attributes per summary")
		t          = flag.Int("t", 2, "max transformation attributes per summary")
		alpha      = flag.Float64("alpha", 0.5, "accuracy weight α in Score(S)")
		topk       = flag.Int("topk", 10, "number of summaries to return")
		kmax       = flag.Int("kmax", 4, "max residual clusters per candidate")
		tree       = flag.Bool("tree", false, "render the top summary as a linear model tree")
		treemap    = flag.Bool("treemap", false, "render the top summary's partition treemap")
		suggest    = flag.Bool("suggest", false, "print the setup assistant's attribute rankings and exit")
		sqlOut     = flag.Bool("sql", false, "emit the top summary as SQL UPDATE statements")
		sqlTable   = flag.String("sql-table", "snapshot", "table name used in -sql output")
		all        = flag.Bool("all", false, "summarize every changed numeric attribute (ignores -target's role as filter)")
		where      = flag.String("where", "", "restrict the analysis to rows matching this condition (e.g. \"dept = POL && grade >= 20\")")
		nonlinear  = flag.Bool("nonlinear", false, "augment transformations with ln/square/interaction features")
		diffOnly   = flag.Bool("diff", false, "print the raw cell diff and update distance, then exit")
		loose      = flag.Bool("loose", false, "tolerate inserted/deleted rows (summarize the entity intersection)")
	)
	flag.Parse()

	if *sourcePath == "" || *targetPath == "" || *key == "" || *target == "" {
		fmt.Fprintln(os.Stderr, "charles: -source, -target-file, -key and -target are required")
		flag.Usage()
		os.Exit(2)
	}
	keys := splitList(*key)
	src, err := charles.LoadCSV(*sourcePath, keys...)
	if err != nil {
		fatal(err)
	}
	tgt, err := charles.LoadCSV(*targetPath, keys...)
	if err != nil {
		fatal(err)
	}

	if *where != "" {
		src, err = charles.FilterTable(src, *where)
		if err != nil {
			fatal(err)
		}
		if err := src.SetKey(keys...); err != nil {
			fatal(err)
		}
		tgt, err = charles.FilterTable(tgt, *where)
		if err != nil {
			fatal(err)
		}
		if err := tgt.SetKey(keys...); err != nil {
			fatal(err)
		}
		fmt.Printf("restricted to %d rows matching %q\n", src.NumRows(), *where)
	}

	if *diffOnly {
		a, err := charles.Align(src, tgt)
		if err != nil {
			fatal(err)
		}
		changes, err := a.Changes(*target, 1e-9)
		if err != nil {
			fatal(err)
		}
		for _, ch := range changes {
			k, _ := a.Source.KeyOf(ch.SrcRow)
			fmt.Printf("%s: %s %v -> %v\n", k, ch.Attr, ch.Old, ch.New)
		}
		ud, err := a.UpdateDistance(1e-9)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%d changed cells of %s (update distance across all attributes: %d)\n", len(changes), *target, ud)
		return
	}

	if *suggest {
		cond, tran, err := charles.SuggestAttributes(src, tgt, *target)
		if err != nil {
			fatal(err)
		}
		fmt.Println("condition attribute candidates (by association with the change):")
		for _, s := range cond {
			fmt.Printf("  %-20s %.3f\n", s.Attr, s.Score)
		}
		fmt.Println("transformation attribute candidates (by correlation with the new value):")
		for _, s := range tran {
			fmt.Printf("  %-20s %.3f\n", s.Attr, s.Score)
		}
		return
	}

	opts := charles.DefaultOptions(*target)
	opts.C, opts.T = *c, *t
	opts.Alpha = *alpha
	opts.TopK = *topk
	opts.KMax = *kmax
	opts.CondAttrs = splitList(*condList)
	opts.TranAttrs = splitList(*tranList)
	opts.Nonlinear = *nonlinear

	if *all {
		res, err := charles.SummarizeAll(src, tgt, opts)
		if err != nil {
			fatal(err)
		}
		for _, attr := range res.Attrs {
			fmt.Printf("=== %s ===\n", attr)
			fmt.Print(charles.RenderRanked(res.ByAttr[attr][:1]))
		}
		for attr, why := range res.Skipped {
			fmt.Printf("skipped %s: %s\n", attr, why)
		}
		return
	}

	var ranked []charles.Ranked
	if *loose {
		ca, err := charles.AlignCommon(src, tgt)
		if err != nil {
			fatal(err)
		}
		if len(ca.Deleted) > 0 || len(ca.Inserted) > 0 {
			fmt.Printf("note: %d rows deleted, %d inserted; summarizing the %d common entities\n",
				len(ca.Deleted), len(ca.Inserted), ca.Source.NumRows())
		}
		ranked, err = charles.SummarizeAligned(ca.Aligned, opts)
		if err != nil {
			fatal(err)
		}
	} else {
		var err error
		ranked, err = charles.Summarize(src, tgt, opts)
		if err != nil {
			fatal(err)
		}
	}
	fmt.Print(charles.RenderRanked(ranked))
	if len(ranked) > 0 && *tree {
		fmt.Println("\nlinear model tree (top summary):")
		fmt.Print(charles.RenderTree(ranked[0].Summary))
	}
	if len(ranked) > 0 && *treemap {
		fmt.Println("\npartition treemap (top summary):")
		fmt.Print(charles.RenderTreemap(ranked[0].Summary, 50))
	}
	if len(ranked) > 0 && *sqlOut {
		fmt.Println("\nSQL replay (top summary):")
		fmt.Print(charles.ExportSQL(ranked[0].Summary, *sqlTable))
	}
}

// runTimeline implements `charles timeline`: load an ordered snapshot
// sequence and summarize every consecutive step, fanning the steps out over
// a worker pool. Without -target, every changed numeric attribute gets its
// own timeline; with it, only that attribute's is rendered.
func runTimeline(args []string) {
	fs := flag.NewFlagSet("charles timeline", flag.ExitOnError)
	var (
		snapshots = fs.String("snapshots", "", "comma-separated CSV snapshots, oldest first (at least 2)")
		key       = fs.String("key", "", "comma-separated primary-key column(s)")
		target    = fs.String("target", "", "render only this attribute's timeline (default: all changed numeric attributes)")
		condList  = fs.String("cond", "", "comma-separated condition attributes (default: setup assistant, per target)")
		tranList  = fs.String("tran", "", "comma-separated transformation attributes (default: setup assistant, per target)")
		c         = fs.Int("c", 3, "max condition attributes per summary")
		t         = fs.Int("t", 2, "max transformation attributes per summary")
		alpha     = fs.Float64("alpha", 0.5, "accuracy weight α in Score(S)")
		topk      = fs.Int("topk", 10, "number of summaries per step")
		kmax      = fs.Int("kmax", 4, "max residual clusters per candidate")
		workers   = fs.Int("workers", 0, "max concurrent steps (0 = GOMAXPROCS)")
	)
	_ = fs.Parse(args)
	paths := splitList(*snapshots)
	if len(paths) < 2 || *key == "" {
		fmt.Fprintln(os.Stderr, "charles timeline: -snapshots (two or more CSVs) and -key are required")
		fs.Usage()
		os.Exit(2)
	}
	keys := splitList(*key)
	snaps := make([]*charles.Table, len(paths))
	for i, p := range paths {
		s, err := charles.LoadCSV(p, keys...)
		if err != nil {
			fatal(err)
		}
		snaps[i] = s
	}
	// Target is left empty in the base: the all-attributes path discovers
	// the changed attributes itself and derives per-target options from it.
	opts := charles.DefaultOptions("")
	opts.C, opts.T = *c, *t
	opts.Alpha = *alpha
	opts.TopK = *topk
	opts.KMax = *kmax
	opts.CondAttrs = splitList(*condList)
	opts.TranAttrs = splitList(*tranList)
	opts.Workers = *workers

	// With -target only that attribute's steps run the engine.
	mt, err := charles.SummarizeTimeline(context.Background(), snaps, *target, opts)
	if err != nil {
		fatal(err)
	}
	if *target != "" {
		fmt.Print(mt.Timelines[*target].Render())
		return
	}
	fmt.Print(mt.Render())
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "charles:", err)
	os.Exit(1)
}
