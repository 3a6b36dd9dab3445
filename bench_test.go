package charles

// One benchmark per reproduction experiment E1–E11 (see DESIGN.md's
// experiment index and EXPERIMENTS.md for paper-vs-measured). Each bench
// regenerates the corresponding paper artifact end to end; run with
//
//	go test -bench=. -benchmem
//
// The heavyweight sweeps (E6 full scale, E10) use the quick configuration
// inside the timing loop and report the full-scale numbers via
// cmd/charles-bench.

import (
	"context"
	"testing"

	"charles/internal/experiments"
	"charles/internal/microbench"
)

func benchExperiment(b *testing.B, id string, quick bool) {
	cfg := experiments.Config{Quick: quick}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(rep.Values) == 0 {
			b.Fatalf("%s produced no values", id)
		}
	}
}

// BenchmarkE1ToyRecovery — Fig 1 + Fig 2 + Example 1: recover R1–R3 from
// the toy snapshots and render the linear model tree.
func BenchmarkE1ToyRecovery(b *testing.B) { benchExperiment(b, "E1", true) }

// BenchmarkE2RankedSummaries — demo step 8: the ranked top-10 list.
func BenchmarkE2RankedSummaries(b *testing.B) { benchExperiment(b, "E2", true) }

// BenchmarkE3AttributeSelection — demo steps 4–5: the setup assistant.
func BenchmarkE3AttributeSelection(b *testing.B) { benchExperiment(b, "E3", true) }

// BenchmarkE4Treemap — demo step 10: the partition treemap.
func BenchmarkE4Treemap(b *testing.B) { benchExperiment(b, "E4", true) }

// BenchmarkE5AlphaSweep — §2: the accuracy–interpretability tradeoff.
func BenchmarkE5AlphaSweep(b *testing.B) { benchExperiment(b, "E5", true) }

// BenchmarkE6Montgomery — §3: the Montgomery County payroll scenario.
func BenchmarkE6Montgomery(b *testing.B) { benchExperiment(b, "E6", true) }

// BenchmarkE7SearchSpace — §2: search-space growth in c and t.
func BenchmarkE7SearchSpace(b *testing.B) { benchExperiment(b, "E7", true) }

// BenchmarkE8Baselines — §1: ChARLES vs global regression, cell list,
// no-change, and update distance.
func BenchmarkE8Baselines(b *testing.B) { benchExperiment(b, "E8", true) }

// BenchmarkE9Noise — robustness to noise and unchanged rows.
func BenchmarkE9Noise(b *testing.B) { benchExperiment(b, "E9", true) }

// BenchmarkE10Scalability — runtime growth in rows.
func BenchmarkE10Scalability(b *testing.B) { benchExperiment(b, "E10", true) }

// BenchmarkE11Billionaires — §3: the Forbes-billionaires scenario.
func BenchmarkE11Billionaires(b *testing.B) { benchExperiment(b, "E11", true) }

// BenchmarkE12Ablation — every engine design choice removed in turn.
func BenchmarkE12Ablation(b *testing.B) { benchExperiment(b, "E12", true) }

// BenchmarkE13Nonlinear — the nonlinear feature extension vs linear-only.
func BenchmarkE13Nonlinear(b *testing.B) { benchExperiment(b, "E13", true) }

// ---- micro-benchmarks of the pipeline stages ----
//
// Each is defined once, in internal/microbench, and measured under the
// same name by charles-bench -baseline. In CI, Timeline, StoreChain50,
// MaterializeChain50, DiffChain50*, LiveExtend* and HubCommit16 run one
// iteration under -race.

// micro runs the named micro-benchmark.
func micro(b *testing.B, name string) {
	for _, mb := range microbench.List(context.Background()) {
		if mb.Name == name {
			mb.Fn(b)
			return
		}
	}
	b.Fatalf("no micro-benchmark %q", name)
}

func BenchmarkSummarizeToy(b *testing.B)       { micro(b, "SummarizeToy") }
func BenchmarkSummarize2k(b *testing.B)        { micro(b, "Summarize2k") }
func BenchmarkAlign(b *testing.B)              { micro(b, "Align5k") }
func BenchmarkSuggestAttributes(b *testing.B)  { micro(b, "SuggestAttributes") }
func BenchmarkTimeline(b *testing.B)           { micro(b, "Timeline8x4") }
func BenchmarkLiveExtend10(b *testing.B)       { micro(b, "LiveExtend10") }
func BenchmarkLiveExtend50(b *testing.B)       { micro(b, "LiveExtend50") }
func BenchmarkDiffChain50(b *testing.B)        { micro(b, "DiffChain50") }
func BenchmarkDiffChain50Align(b *testing.B)   { micro(b, "DiffChain50Align") }
func BenchmarkStoreChain50(b *testing.B)       { micro(b, "StoreChain50") }
func BenchmarkMaterializeChain50(b *testing.B) { micro(b, "MaterializeChain50") }
func BenchmarkHubCommit16(b *testing.B)        { micro(b, "HubCommit16") }
