package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	charles "charles"
)

// chain generates a steps-long gen.Chain lineage (steps+1 snapshots).
func chain(t *testing.T, steps int) []*charles.Table {
	t.Helper()
	snaps, err := charles.ChainDataset(charles.ChainConfig{N: 40, Steps: steps, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return snaps
}

// commitAll commits snaps as one lineage on top of parent and returns
// their version ids, oldest first.
func commitAll(t *testing.T, st *charles.VersionStore, parent string, snaps ...*charles.Table) []string {
	t.Helper()
	var ids []string
	for _, snap := range snaps {
		v, err := st.Commit(snap, parent, "step")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
		parent = v.ID
	}
	return ids
}

// TestTimelineRendersWalk pins `charles-store timeline` with and without
// -target to the library's walk over the same snapshots.
func TestTimelineRendersWalk(t *testing.T) {
	st, err := charles.OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	snaps := chain(t, 4)
	commitAll(t, st, "", snaps...)
	ctx := context.Background()
	base := charles.DefaultOptions("")
	for _, target := range []string{"", "salary"} {
		mt, err := charles.SummarizeTimeline(ctx, snaps, target, base)
		if err != nil {
			t.Fatal(err)
		}
		want, args := mt.Render(), []string(nil)
		if target != "" {
			want, args = mt.Timelines[target].Render(), []string{"-target", target}
		}
		var out bytes.Buffer
		cmdTimeline(&out, st, nil, args)
		if out.String() != want {
			t.Errorf("timeline %v rendered\n%s\nwant\n%s", args, out.String(), want)
		}
	}
}

// TestTimelineTargetColdRunParsesEachVersionOnce: a cold -target run on a
// freshly opened store checks the lineage out once — one CSV parse per
// version, each blob rebuilt from its parent's — on a lineage shorter than
// the anchor interval.
func TestTimelineTargetColdRunParsesEachVersionOnce(t *testing.T) {
	dir := t.TempDir()
	st, err := charles.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids := commitAll(t, st, "", chain(t, 4)...)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	cold, err := charles.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	cmdTimeline(io.Discard, cold, nil, []string{"-target", "salary"})
	if parses := cold.Stats().Parses; parses != int64(len(ids)) {
		t.Errorf("cold -target run parsed %d versions, want %d (each once)", parses, len(ids))
	}
}

// TestFollowOnce pins -follow's output: the whole timeline on first sight
// of a lineage, one "[id] step k" block per new commit, nothing when the
// head has not moved, and the whole rebuilt timeline after a branch switch.
func TestFollowOnce(t *testing.T) {
	st, err := charles.OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	snaps := chain(t, 4)
	ids := commitAll(t, st, "", snaps[:3]...)
	base := charles.DefaultOptions("")
	var out bytes.Buffer
	m, last := followOnce(&out, st, nil, "", base, true)
	if m == nil || last != ids[2] {
		t.Fatalf("first poll: maintainer %v at %q, want one at %q", m, last, ids[2])
	}
	if got := out.String(); got != m.Timeline().Render() || !strings.Contains(got, "across 2 steps") {
		t.Errorf("first poll printed\n%s\nwant the whole 2-step timeline", got)
	}

	ids = append(ids, commitAll(t, st, ids[2], snaps[3:]...)...)
	out.Reset()
	m, last = followOnce(&out, st, m, last, base, false)
	got := out.String()
	if last != ids[4] || strings.Count(got, "] step ") != 2 {
		t.Fatalf("two commits printed\n%s\nwant two step blocks ending at %s", got, ids[4])
	}
	for k := 3; k <= 4; k++ {
		if !strings.Contains(got, fmt.Sprintf("\n[%s] step %d\n", ids[k], k)) {
			t.Errorf("missing the block for %s (step %d):\n%s", ids[k], k, got)
		}
	}
	if strings.Contains(got, "evolution of") {
		t.Errorf("an extension re-rendered the whole timeline:\n%s", got)
	}

	out.Reset()
	if m, last = followOnce(&out, st, m, last, base, false); out.Len() != 0 {
		t.Errorf("an unmoved head printed %q", out.String())
	}

	branch := snaps[2].Clone()
	salary := branch.MustColumn("salary")
	if err := salary.Set(0, charles.F(salary.Float(0)+1)); err != nil {
		t.Fatal(err)
	}
	br := commitAll(t, st, ids[1], branch)
	out.Reset()
	m, last = followOnce(&out, st, m, last, base, false)
	if last != br[0] || m.Head() != br[0] {
		t.Fatalf("after the branch commit: head %q, maintainer at %q, want %q", last, m.Head(), br[0])
	}
	if got := out.String(); got != m.Timeline().Render() || strings.Contains(got, "] step ") {
		t.Errorf("branch switch printed\n%s\nwant the whole rebuilt timeline", got)
	}
}
