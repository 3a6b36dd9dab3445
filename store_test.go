package charles

import (
	"reflect"
	"testing"

	"charles/internal/core"
)

// TestDiffSnapshotsMatchesStoreDiffResult pins the one diff: for every
// ordered pair of a committed ChainDataset lineage, DiffSnapshots over the
// committed snapshots equals VersionStore.DiffResult over their versions.
func TestDiffSnapshotsMatchesStoreDiffResult(t *testing.T) {
	snaps, err := ChainDataset(ChainConfig{N: 60, Steps: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(snaps))
	parent := ""
	for i, snap := range snaps {
		v, err := st.Commit(snap, parent, "step")
		if err != nil {
			t.Fatal(err)
		}
		ids[i], parent = v.ID, v.ID
	}
	for i := range snaps {
		for j := range snaps {
			want, err := DiffSnapshots(snaps[i], snaps[j], core.ChangeTol)
			if err != nil {
				t.Fatalf("DiffSnapshots(%d,%d): %v", i, j, err)
			}
			got, _, err := st.DiffResult(ids[i], ids[j], core.ChangeTol)
			if err != nil {
				t.Fatalf("DiffResult(%d,%d): %v", i, j, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pair (%d,%d): store answer differs\ngot:  %+v\nwant: %+v", i, j, got, want)
			}
			if i != j && want.UpdateDistance == 0 {
				t.Errorf("pair (%d,%d): no change between distinct versions", i, j)
			}
		}
	}
}
