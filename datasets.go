package charles

import (
	"charles/internal/gen"
)

// Dataset is a generated snapshot pair with known ground truth, for
// experimentation and benchmarking.
type Dataset = gen.PlantedData

// PlantedConfig parameterizes the synthetic evolving-database generator.
type PlantedConfig = gen.PlantedConfig

// ToyDataset returns the paper's Figure 1 employee snapshots (2016, 2017);
// the 2017 bonus follows the planted policy R1–R3 of Example 1.
func ToyDataset() (src, tgt *Table) { return gen.Toy() }

// ToyTruth returns the ground-truth summary (R1–R3) behind ToyDataset.
func ToyTruth() *Summary { return gen.ToyTruth() }

// PlantedDataset evolves a synthetic table under a known policy of
// conditional linear transformations; use it to measure recovery quality
// under controlled noise, scale, and rule complexity.
func PlantedDataset(cfg PlantedConfig) (*Dataset, error) { return gen.Planted(cfg) }

// MontgomeryDataset simulates the Montgomery County employee-salary dataset
// of the paper's demonstration (schema and scale faithful; policy planted —
// see DESIGN.md for the substitution rationale).
func MontgomeryDataset(seed int64, n int) (*Dataset, error) { return gen.Montgomery(seed, n) }

// BillionairesDataset simulates the Forbes billionaires list with
// sector-conditioned net-worth growth.
func BillionairesDataset(seed int64, n int) (*Dataset, error) { return gen.Billionaires(seed, n) }

// ChainConfig parameterizes the multi-step, multi-target chain generator.
type ChainConfig = gen.ChainConfig

// ChainDataset builds a deterministic version chain (cfg.Steps+1 snapshots)
// in which four numeric attributes evolve under known per-step policies —
// the timeline workload behind SummarizeTimeline and its benchmarks.
func ChainDataset(cfg ChainConfig) ([]*Table, error) { return gen.Chain(cfg) }
