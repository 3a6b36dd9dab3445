package charles

import (
	"testing"

	"charles/internal/core"
	"charles/internal/score"
)

// TestWorkersMatchSerialAt2k is the scale companion of
// TestParallelWorkersMatchSerial: on the 2 000-row planted dataset the
// full ranking — fingerprints AND scores — must be identical regardless of
// worker count. The engine's per-worker evaluators share one atom-bitmap
// cache, so this also exercises the cache under concurrency.
func TestWorkersMatchSerialAt2k(t *testing.T) {
	d, err := PlantedDataset(PlantedConfig{N: 2000, Seed: 13, Rules: 3, RuleDepth: 2, UnchangedFrac: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(d.Target)
	opts.CondAttrs = d.CondAttrs
	opts.TranAttrs = d.TranAttrs

	serial := opts
	serial.Workers = 1
	parallel := opts
	parallel.Workers = 8

	a, err := Summarize(d.Src, d.Tgt, serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Summarize(d.Src, d.Tgt, parallel)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("worker count changed result size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Summary.Fingerprint() != b[i].Summary.Fingerprint() {
			t.Fatalf("worker count changed ranking at %d:\n%s\nvs\n%s", i, a[i].Summary, b[i].Summary)
		}
		if a[i].Breakdown.Score != b[i].Breakdown.Score {
			t.Fatalf("worker count changed score at %d: %v vs %v", i, a[i].Breakdown.Score, b[i].Breakdown.Score)
		}
	}
}

// TestVectorizedApplyMatchesNaiveAt2k locks the whole vectorized candidate-
// evaluation stack against the naive per-row path at scale, at α = 0, 0.5
// and 1: every breakdown the engine ranks must equal the row-at-a-time
// score.Evaluate of its summary (Summary.Apply predictions) blended at that
// α, field for field, and the ranking must descend in Score. α = 0 and 1
// are the blends that ignore accuracy and interpretability respectively.
func TestVectorizedApplyMatchesNaiveAt2k(t *testing.T) {
	d, err := PlantedDataset(PlantedConfig{N: 2000, Seed: 29, Rules: 2, RuleDepth: 2, UnchangedFrac: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Align(d.Src, d.Tgt)
	if err != nil {
		t.Fatal(err)
	}
	_, newVals, err := a.Delta(d.Target)
	if err != nil {
		t.Fatal(err)
	}
	changed, err := a.ChangedMask(d.Target, core.ChangeTol)
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []float64{0, 0.5, 1} {
		opts := DefaultOptions(d.Target)
		opts.CondAttrs = d.CondAttrs
		opts.TranAttrs = d.TranAttrs
		opts.Alpha = alpha
		ranked, err := Summarize(d.Src, d.Tgt, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(ranked) == 0 {
			t.Fatalf("alpha %v: no summaries", alpha)
		}
		for i, r := range ranked {
			bd, err := score.Evaluate(r.Summary, a.Source, newVals, changed, opts.Weights)
			if err != nil {
				t.Fatal(err)
			}
			bd.Score = bd.Blend(alpha)
			if *bd != *r.Breakdown {
				t.Fatalf("alpha %v, summary %d: naive breakdown %+v != engine breakdown %+v", alpha, i, *bd, *r.Breakdown)
			}
			if i > 0 && ranked[i-1].Score() < r.Score() {
				t.Fatalf("alpha %v: summary %d scores %v, above summary %d's %v", alpha, i, r.Score(), i-1, ranked[i-1].Score())
			}
		}
	}
}
