// Versions: combine the snapshot version store with timeline
// summarization. Three years of a planted payroll are committed to a
// lineage; ChARLES then explains each year-over-year step, detects that the
// policy was restructured between steps, and exports the latest step as
// SQL.
//
// Run with: go run ./examples/versions
package main

import (
	"context"
	"fmt"
	"log"

	charles "charles"
)

func main() {
	// Year 1 → 2: the planted 3-rule policy.
	d, err := charles.PlantedDataset(charles.PlantedConfig{
		N: 2000, Seed: 5, Rules: 3, UnchangedFrac: 0.3,
	})
	if err != nil {
		log.Fatal(err)
	}
	year1, year2 := d.Src, d.Tgt

	// Year 2 → 3: a different, flat policy — everyone gets 2%.
	year3 := year2.Clone()
	pay := year3.MustColumn("pay")
	for r := 0; r < year3.NumRows(); r++ {
		if err := pay.Set(r, charles.F(1.02*pay.Float(r))); err != nil {
			log.Fatal(err)
		}
	}

	// Commit the lineage.
	store, err := charles.OpenStore("") // memory-only for the example
	if err != nil {
		log.Fatal(err)
	}
	v1, err := store.Commit(year1, "", "year 1")
	if err != nil {
		log.Fatal(err)
	}
	v2, err := store.Commit(year2, v1.ID, "year 2: segment raises")
	if err != nil {
		log.Fatal(err)
	}
	v3, err := store.Commit(year3, v2.ID, "year 3: flat 2% COLA")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("version log:")
	for _, v := range store.Log() {
		fmt.Printf("  %s  %s\n", v.ID, v.Message)
	}

	// Summarize the whole history.
	opts := charles.DefaultOptions("pay")
	opts.CondAttrs = []string{"seg", "tier", "region"}
	opts.TranAttrs = []string{"pay"}
	mt, err := charles.SummarizeTimeline(context.Background(), []*charles.Table{year1, year2, year3}, "pay", opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(mt.Timelines["pay"].Render())

	// Cross-version summarization straight from the store, exported as SQL.
	ranked, err := store.Summarize(v2.ID, v3.ID, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nSQL replay of the latest step:")
	fmt.Print(charles.ExportSQL(ranked[0].Summary, "payroll"))
}
