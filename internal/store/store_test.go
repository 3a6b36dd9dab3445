package store

import (
	"errors"
	"os"
	"strings"
	"sync"
	"testing"

	"charles/internal/core"
	"charles/internal/gen"
	"charles/internal/table"
)

// rowByKey returns the row holding key in tbl's primary-key index, or -1.
func rowByKey(tbl *table.Table, key string) (int, error) {
	idx, err := tbl.KeyIndexFor(tbl.Key())
	if err != nil {
		return -1, err
	}
	if row, ok := idx[key]; ok {
		return row, nil
	}
	return -1, nil
}

func TestCommitCheckoutRoundTrip(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	src, _ := gen.Toy()
	v, err := s.Commit(src, "", "2016 snapshot")
	if err != nil {
		t.Fatal(err)
	}
	if v.Rows != 9 || v.Seq != 1 || v.Parent != "" {
		t.Errorf("version = %+v", v)
	}
	back, err := s.Checkout(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 9 {
		t.Errorf("checkout rows = %d", back.NumRows())
	}
	// Values survive (canonical order may differ from insertion order).
	row, err := rowByKey(back, "Anne")
	if err != nil || row < 0 {
		t.Fatalf("Anne missing after round-trip: %d, %v", row, err)
	}
	val, err := back.Value(row, "bonus")
	if err != nil || val.Float() != 23000 {
		t.Errorf("Anne bonus = %v", val)
	}
}

func TestContentAddressing(t *testing.T) {
	s, _ := Open("")
	src, _ := gen.Toy()
	v1, err := s.Commit(src, "", "first")
	if err != nil {
		t.Fatal(err)
	}
	// Identical content commits to the same id (and does not duplicate).
	v2, err := s.Commit(src.Clone(), "", "dup")
	if err != nil {
		t.Fatal(err)
	}
	if v1.ID != v2.ID {
		t.Errorf("identical content produced different ids: %s vs %s", v1.ID, v2.ID)
	}
	if len(s.Log()) != 1 {
		t.Errorf("log has %d entries, want 1", len(s.Log()))
	}
	// Row order does not matter: permuted rows hash identically.
	perm := src.Gather([]int{8, 7, 6, 5, 4, 3, 2, 1, 0})
	v3, err := s.Commit(perm, "", "permuted")
	if err != nil {
		t.Fatal(err)
	}
	if v3.ID != v1.ID {
		t.Error("row permutation changed the content id")
	}
}

func TestLineageAndLog(t *testing.T) {
	s, _ := Open("")
	d1, d2 := gen.Toy()
	v1, err := s.Commit(d1, "", "2016")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Commit(d2, v1.ID, "2017")
	if err != nil {
		t.Fatal(err)
	}
	lineage, err := s.Lineage(v2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(lineage) != 2 || lineage[0].ID != v2.ID || lineage[1].ID != v1.ID {
		t.Errorf("lineage = %+v", lineage)
	}
	log := s.Log()
	if len(log) != 2 || log[0].Seq != 1 || log[1].Seq != 2 {
		t.Errorf("log = %+v", log)
	}
}

func TestCommitValidation(t *testing.T) {
	s, _ := Open("")
	noKey := table.MustNew(table.Schema{{Name: "x", Type: table.Int}})
	noKey.MustAppendRow(table.I(1))
	if _, err := s.Commit(noKey, "", "bad"); err == nil {
		t.Error("keyless table accepted")
	}
	src, _ := gen.Toy()
	if _, err := s.Commit(src, "nonexistent", "orphan"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown parent: %v", err)
	}
	if _, err := s.Checkout("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown checkout: %v", err)
	}
	if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown get: %v", err)
	}
}

func TestDiffAndSummarizeBetweenVersions(t *testing.T) {
	s, _ := Open("")
	d1, d2 := gen.Toy()
	v1, err := s.Commit(d1, "", "2016")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Commit(d2, v1.ID, "2017 raises")
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Diff(v1.ID, v2.ID)
	if err != nil {
		t.Fatal(err)
	}
	ud, err := a.UpdateDistance(1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if ud == 0 {
		t.Error("versions should differ")
	}
	ranked, err := s.Summarize(v1.ID, v2.ID, core.DefaultOptions("bonus"))
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].Breakdown.Score < 0.85 {
		t.Errorf("cross-version summary score = %v", ranked[0].Breakdown.Score)
	}
	if ranked[0].Summary.Size() != 3 {
		t.Errorf("cross-version summary size = %d", ranked[0].Summary.Size())
	}
}

func TestPersistenceAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := gen.Toy()
	v1, err := s1.Commit(d1, "", "2016")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s1.Commit(d2, v1.ID, "2017")
	if err != nil {
		t.Fatal(err)
	}

	// Re-open from disk.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	log := s2.Log()
	if len(log) != 2 {
		t.Fatalf("reloaded log = %d entries", len(log))
	}
	if log[1].ID != v2.ID || log[1].Parent != v1.ID || log[1].Message != "2017" {
		t.Errorf("reloaded metadata = %+v", log[1])
	}
	back, err := s2.Checkout(v2.ID)
	if err != nil {
		t.Fatal(err)
	}
	row, err := rowByKey(back, "Anne")
	if err != nil {
		t.Fatal(err)
	}
	val, _ := back.Value(row, "bonus")
	if val.Float() != 25150 {
		t.Errorf("reloaded Anne 2017 bonus = %v", val)
	}
	// And summarization still works on the reloaded store.
	ranked, err := s2.Summarize(v1.ID, v2.ID, core.DefaultOptions("bonus"))
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].Summary.Size() != 3 {
		t.Errorf("post-reload summary size = %d", ranked[0].Summary.Size())
	}
}

func TestOpenRejectsCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	if err := writeFile(dir+"/manifest.json", "{not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("corrupt manifest accepted")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestCommitDedupLineageConflict(t *testing.T) {
	s, _ := Open("")
	d1, d2 := gen.Toy()
	v1, err := s.Commit(d1, "", "2016")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Commit(d2, v1.ID, "2017")
	if err != nil {
		t.Fatal(err)
	}
	// Re-committing identical content with the *same* parent dedups quietly.
	again, err := s.Commit(d2.Clone(), v1.ID, "2017 again")
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != v2.ID {
		t.Errorf("dedup returned %s, want %s", again.ID, v2.ID)
	}
	// Re-committing identical content with a *different* parent is a
	// lineage conflict, not a silent rewrite.
	if _, err := s.Commit(d2.Clone(), "", "orphaned 2017"); !errors.Is(err, ErrLineageConflict) {
		t.Errorf("conflicting parent: got %v, want ErrLineageConflict", err)
	}
	if _, err := s.Commit(d1.Clone(), v2.ID, "2016 rebased"); !errors.Is(err, ErrLineageConflict) {
		t.Errorf("conflicting parent: got %v, want ErrLineageConflict", err)
	}
	if len(s.Log()) != 2 {
		t.Errorf("conflicting commits changed the log: %d entries", len(s.Log()))
	}
}

func TestLineageCycleDetected(t *testing.T) {
	s, _ := Open("")
	d1, d2 := gen.Toy()
	v1, err := s.Commit(d1, "", "2016")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Commit(d2, v1.ID, "2017")
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a hand-edited/corrupt manifest: point the root back at the
	// child, forming a cycle. (Content addressing can't create this.)
	s.versions[v1.ID].Parent = v2.ID
	if _, err := s.Lineage(v2.ID); err == nil || !strings.Contains(err.Error(), "lineage cycle") {
		t.Errorf("cyclic lineage: got %v, want lineage cycle error", err)
	}
	// Self-cycle, too.
	s.versions[v1.ID].Parent = v1.ID
	if _, err := s.Lineage(v1.ID); err == nil || !strings.Contains(err.Error(), "lineage cycle") {
		t.Errorf("self-cycle: got %v, want lineage cycle error", err)
	}
}

// TestConcurrentStoreHammer exercises one Store from many goroutines under
// -race: concurrent commits of distinct content, checkouts, log walks,
// lineage walks, and full engine summarizations.
func TestConcurrentStoreHammer(t *testing.T) {
	s, _ := Open("")
	d1, d2 := gen.Toy()
	v1, err := s.Commit(d1, "", "2016")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Commit(d2, v1.ID, "2017")
	if err != nil {
		t.Fatal(err)
	}

	const writers, readers = 4, 8
	var wg sync.WaitGroup
	errc := make(chan error, writers+readers+2)

	// Writers: distinct content per goroutine (perturb one bonus cell).
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			parent := v2.ID
			for i := 0; i < 5; i++ {
				mod := d2.Clone()
				row, err := rowByKey(mod, "Anne")
				if err != nil {
					errc <- err
					return
				}
				if err := mod.MustColumn("bonus").Set(row, table.F(float64(30000+w*1000+i))); err != nil {
					errc <- err
					return
				}
				v, err := s.Commit(mod, parent, "hammer")
				if err != nil {
					errc <- err
					return
				}
				parent = v.ID
			}
		}(w)
	}
	// Readers: checkout, log, get, lineage on whatever exists.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for _, v := range s.Log() {
					if _, err := s.Get(v.ID); err != nil {
						errc <- err
						return
					}
				}
				if _, err := s.Checkout(v2.ID); err != nil {
					errc <- err
					return
				}
				if _, err := s.Lineage(v2.ID); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	// Summarizers: run the engine across the two fixed versions while
	// commits land.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Summarize(v1.ID, v2.ID, core.DefaultOptions("bonus")); err != nil {
				errc <- err
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// All writer commits landed with distinct content → distinct versions.
	want := 2 + writers*5
	if got := len(s.Log()); got != want {
		t.Errorf("log has %d entries, want %d", got, want)
	}
	seqs := map[int]bool{}
	for _, v := range s.Log() {
		if seqs[v.Seq] {
			t.Errorf("duplicate seq %d", v.Seq)
		}
		seqs[v.Seq] = true
	}
}

// TestChainAndHead pins the lineage-walk helpers behind POST /timeline:
// Chain returns root→head order (Lineage reversed), Head the latest commit.
func TestChainAndHead(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Head(); !errors.Is(err, ErrNotFound) {
		t.Errorf("empty store Head err = %v, want ErrNotFound", err)
	}
	snaps, err := gen.Chain(gen.ChainConfig{N: 20, Steps: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	parent := ""
	for _, snap := range snaps {
		v, err := s.Commit(snap, parent, "step")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
		parent = v.ID
	}
	head, err := s.Head()
	if err != nil {
		t.Fatal(err)
	}
	if head.ID != ids[len(ids)-1] {
		t.Errorf("head = %s, want %s", head.ID, ids[len(ids)-1])
	}
	chain, err := s.Chain(head.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != len(ids) {
		t.Fatalf("chain length = %d, want %d", len(chain), len(ids))
	}
	for i, v := range chain {
		if v.ID != ids[i] {
			t.Errorf("chain[%d] = %s, want root→head order %s", i, v.ID, ids[i])
		}
	}
	if _, err := s.Chain("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown head err = %v", err)
	}
}
