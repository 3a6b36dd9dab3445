package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"charles/internal/core"
	"charles/internal/csvio"
	"charles/internal/gen"
	"charles/internal/table"
	"charles/internal/vfs"
)

// commitChain commits snapshots as a parent-linked chain and returns the ids.
func commitChain(t *testing.T, s *Store, snaps []*table.Table) []string {
	t.Helper()
	ids := make([]string, 0, len(snaps))
	parent := ""
	for i, snap := range snaps {
		v, err := s.Commit(snap, parent, fmt.Sprintf("step %d", i))
		if err != nil {
			t.Fatalf("commit step %d: %v", i, err)
		}
		ids = append(ids, v.ID)
		parent = v.ID
	}
	return ids
}

// verifyChain checks the round-trip invariants for every committed snapshot:
// Blob is byte-identical to the independent canonical serialization, and
// Checkout equals a fresh parse of that serialization (what the legacy
// full-CSV store returned).
func verifyChain(t *testing.T, s *Store, snaps []*table.Table, ids []string) {
	t.Helper()
	for i, snap := range snaps {
		want, err := canonicalCSV(snap)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Blob(ids[i])
		if err != nil {
			t.Fatalf("blob step %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("step %d: reconstructed blob differs from canonical CSV\ngot:\n%s\nwant:\n%s", i, got, want)
		}
		back, err := s.Checkout(ids[i])
		if err != nil {
			t.Fatalf("checkout step %d: %v", i, err)
		}
		ref, err := csvio.Read(bytes.NewReader(want), csvio.Options{Key: snap.Key()})
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(ref) {
			t.Fatalf("step %d: checkout differs from parsing the canonical CSV", i)
		}
	}
}

// TestPackPropertyRoundTrip is the property-based round-trip batch: random
// mutation chains (cell edits, inserts, deletes, adversarial string cells)
// must survive the delta codec byte-for-byte, across anchor boundaries, on
// warm and cold stores, for several seeds.
func TestPackPropertyRoundTrip(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			snaps, err := gen.MutateChain(gen.FuzzConfig{N: 40, Steps: 10, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			// AnchorEvery 3 forces several anchor boundaries inside 11 versions.
			s, err := OpenWith(dir, Options{AnchorEvery: 3, TableCache: 4})
			if err != nil {
				t.Fatal(err)
			}
			ids := commitChain(t, s, snaps)
			verifyChain(t, s, snaps, ids)

			st := s.Stats()
			if st.DeltaPacks == 0 {
				t.Error("mutation chain produced no delta packs")
			}
			if st.FullPacks < 2 {
				t.Errorf("AnchorEvery=3 over %d versions produced %d anchors, want >= 2", len(ids), st.FullPacks)
			}

			// Cold path: a fresh Open must reconstruct identically from disk.
			s2, err := OpenWith(dir, Options{AnchorEvery: 3})
			if err != nil {
				t.Fatal(err)
			}
			verifyChain(t, s2, snaps, ids)
		})
	}
}

// TestPackSchemaChangeFallsBackToFull pins the schema-identical precondition:
// a child whose schema differs from its parent cannot delta-encode and is
// stored as a full pack — and still round-trips.
func TestPackSchemaChangeFallsBackToFull(t *testing.T) {
	s, err := OpenWith("", Options{AnchorEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	first := table.MustNew(table.Schema{
		{Name: "id", Type: table.String},
		{Name: "x", Type: table.Float},
	})
	first.MustAppendRow(table.S("a"), table.F(1.5))
	first.MustAppendRow(table.S("b"), table.F(2.5))
	if err := first.SetKey("id"); err != nil {
		t.Fatal(err)
	}
	widened := table.MustNew(table.Schema{
		{Name: "id", Type: table.String},
		{Name: "x", Type: table.Float},
		{Name: "y", Type: table.Int},
	})
	widened.MustAppendRow(table.S("a"), table.F(1.5), table.I(10))
	widened.MustAppendRow(table.S("b"), table.F(9.5), table.I(20))
	if err := widened.SetKey("id"); err != nil {
		t.Fatal(err)
	}
	ids := commitChain(t, s, []*table.Table{first, widened})
	verifyChain(t, s, []*table.Table{first, widened}, ids)
	st := s.Stats()
	if st.FullPacks != 2 || st.DeltaPacks != 0 {
		t.Errorf("schema change: full=%d delta=%d, want 2 full / 0 delta", st.FullPacks, st.DeltaPacks)
	}
}

// TestPackCRLFCellsFallBackToFull pins the CRLF guard: Go's csv.Reader
// normalizes "\r\n" to "\n" inside quoted cells, so a parse→re-emit delta
// round-trip cannot be byte-identical for CR-bearing data — the encoder
// must store such versions as full packs (verbatim bytes), keeping
// reconstruction exact and content ids verifying. (The fuzz corpus excludes
// CR on purpose: one CR cell anywhere forces the whole chain full, which
// would gut the property suite's delta coverage.)
func TestPackCRLFCellsFallBackToFull(t *testing.T) {
	mk := func(note string) *table.Table {
		tbl := table.MustNew(table.Schema{
			{Name: "id", Type: table.String},
			{Name: "note", Type: table.String},
			{Name: "x", Type: table.Float},
		})
		tbl.MustAppendRow(table.S("a"), table.S("x\r\ny"), table.F(1.5))
		tbl.MustAppendRow(table.S("b"), table.S(note), table.F(2.5))
		if err := tbl.SetKey("id"); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	snaps := []*table.Table{mk("one"), mk("two"), mk("three\rcr")}
	// TableCache 1 keeps the commit-warmed blob cache from masking
	// reconstruction: Blob() below must actually replay packs.
	s, err := OpenWith("", Options{AnchorEvery: 8, TableCache: 1})
	if err != nil {
		t.Fatal(err)
	}
	ids := commitChain(t, s, snaps)
	verifyChain(t, s, snaps, ids)
	for i, id := range ids {
		want, err := canonicalCSV(snaps[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Blob(id)
		if err != nil {
			t.Fatal(err)
		}
		if gotID := contentID(got, snaps[i].Key()); gotID != id {
			t.Errorf("step %d: reconstructed blob hashes to %s, version id is %s", i, gotID, id)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("step %d: CRLF blob not byte-identical", i)
		}
	}
	if st := s.Stats(); st.DeltaPacks != 0 || st.FullPacks != len(ids) {
		t.Errorf("CR-bearing chain: %d full / %d delta packs, want all full", st.FullPacks, st.DeltaPacks)
	}
}

// writeLegacyLayout recreates the pre-pack on-disk layout: an array-shaped
// manifest plus one <id>.csv per version.
func writeLegacyLayout(t *testing.T, dir string, versions []*Version, blobs map[string][]byte) {
	t.Helper()
	for id, blob := range blobs {
		if err := os.WriteFile(filepath.Join(dir, id+".csv"), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := json.MarshalIndent(versions, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialDeltaVsLegacy feeds the same commit sequence to a
// delta-backed store and a legacy full-CSV store (migrated on Open) and
// requires identical Blob, Log, Lineage, Diff, and Summarize results —
// bit-identical rankings included.
func TestDifferentialDeltaVsLegacy(t *testing.T) {
	snaps, err := gen.Chain(gen.ChainConfig{N: 60, Steps: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	deltaStore, err := OpenWith(t.TempDir(), Options{AnchorEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	ids := commitChain(t, deltaStore, snaps)

	// Materialize the identical history in the legacy layout and let Open
	// migrate it.
	legacyDir := t.TempDir()
	blobs := map[string][]byte{}
	for _, id := range ids {
		blob, err := deltaStore.Blob(id)
		if err != nil {
			t.Fatal(err)
		}
		blobs[id] = blob
	}
	writeLegacyLayout(t, legacyDir, deltaStore.Log(), blobs)
	legacyStore, err := Open(legacyDir)
	if err != nil {
		t.Fatalf("migrating legacy store: %v", err)
	}

	if !reflect.DeepEqual(deltaStore.Log(), legacyStore.Log()) {
		t.Fatalf("Log differs:\n%+v\nvs\n%+v", deltaStore.Log(), legacyStore.Log())
	}
	head := ids[len(ids)-1]
	dl, err1 := deltaStore.Lineage(head)
	ll, err2 := legacyStore.Lineage(head)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(dl, ll) {
		t.Fatal("Lineage differs")
	}
	for _, id := range ids {
		db, err1 := deltaStore.Blob(id)
		lb, err2 := legacyStore.Blob(id)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !bytes.Equal(db, lb) {
			t.Fatalf("Blob(%s) differs between delta and legacy store", id)
		}
	}
	for i := 0; i+1 < len(ids); i++ {
		da, err1 := deltaStore.Diff(ids[i], ids[i+1])
		la, err2 := legacyStore.Diff(ids[i], ids[i+1])
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		dud, _ := da.UpdateDistance(1e-9)
		lud, _ := la.UpdateDistance(1e-9)
		if dud != lud {
			t.Fatalf("step %d: update distance %d vs %d", i, dud, lud)
		}
		dattrs, _ := da.ChangedAttrs(1e-9)
		lattrs, _ := la.ChangedAttrs(1e-9)
		if !reflect.DeepEqual(dattrs, lattrs) {
			t.Fatalf("step %d: changed attrs %v vs %v", i, dattrs, lattrs)
		}
	}
	opts := core.DefaultOptions("salary")
	opts.CondAttrs = []string{"dept", "grade"}
	dr, err := deltaStore.Summarize(ids[0], ids[1], opts)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := legacyStore.Summarize(ids[0], ids[1], opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dr, lr) {
		t.Fatal("Summarize rankings differ between delta and legacy store")
	}
	// The migrated store must be delta-encoded now, and GC must reclaim the
	// legacy CSVs it superseded.
	if st := legacyStore.Stats(); st.DeltaPacks == 0 {
		t.Error("migration produced no delta packs")
	}
	rep, err := legacyStore.GC()
	if err != nil {
		t.Fatal(err)
	}
	if rep.LegacyFiles != len(ids) || rep.BytesReclaimed == 0 {
		t.Errorf("GC report = %+v, want %d legacy files", rep, len(ids))
	}
	// Everything still reads after GC (packs are self-sufficient).
	for _, id := range ids {
		if _, err := legacyStore.Blob(id); err != nil {
			t.Fatalf("post-GC blob %s: %v", id, err)
		}
	}
}

// TestCheckoutNeverAliasesCache pins the LRU contract: mutating a table
// returned by Checkout must not leak into later checkouts of the same
// version (warm hits clone, never alias).
func TestCheckoutNeverAliasesCache(t *testing.T) {
	s, _ := Open("")
	d1, _ := gen.Toy()
	v, err := s.Commit(d1, "", "base")
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Checkout(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	row, err := rowByKey(first, "Anne")
	if err != nil || row < 0 {
		t.Fatalf("Anne missing: %d %v", row, err)
	}
	if err := first.MustColumn("bonus").Set(row, table.F(-1)); err != nil {
		t.Fatal(err)
	}
	second, err := s.Checkout(v.ID) // warm: served from cache
	if err != nil {
		t.Fatal(err)
	}
	row2, _ := rowByKey(second, "Anne")
	if got, _ := second.Value(row2, "bonus"); got.Float() == -1 {
		t.Fatal("cache hit returned a table aliasing a previously returned (mutated) table")
	}
}

// TestRaceSoakCommitCheckoutChain hammers one store from many goroutines
// under -race with a tiny table LRU, so hits, misses, evictions, and
// re-fills interleave with commits — and every returned table is private
// (mutating it never corrupts later checkouts).
func TestRaceSoakCommitCheckoutChain(t *testing.T) {
	snaps, err := gen.Chain(gen.ChainConfig{N: 30, Steps: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenWith("", Options{AnchorEvery: 3, TableCache: 2})
	if err != nil {
		t.Fatal(err)
	}
	ids := commitChain(t, s, snaps)
	head := ids[len(ids)-1]

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	// Committers: extend side branches with distinct content.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			parent := ids[w]
			for i := 0; i < 4; i++ {
				mod := snaps[w].Clone()
				if err := mod.MustColumn("salary").Set(0, table.F(float64(90000+w*100+i)+0.5)); err != nil {
					errc <- err
					return
				}
				v, err := s.Commit(mod, parent, "soak")
				if err != nil {
					errc <- err
					return
				}
				parent = v.ID
			}
		}(w)
	}
	// Checkout hammerers: repeatedly check out the whole chain, mutate the
	// returned tables in place, and verify a fresh checkout is unaffected.
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				for _, id := range ids {
					got, err := s.Checkout(id)
					if err != nil {
						errc <- err
						return
					}
					// Scribble over every numeric cell: if any later
					// checkout observes this, the cache leaked a buffer.
					if err := got.MustColumn("salary").Set(0, table.F(-12345)); err != nil {
						errc <- err
						return
					}
				}
				fresh, err := s.Checkout(ids[0])
				if err != nil {
					errc <- err
					return
				}
				if v, _ := fresh.Value(0, "salary"); v.Float() == -12345 {
					errc <- errors.New("checkout observed another goroutine's mutation: cache aliasing")
					return
				}
			}
		}()
	}
	// Chain walkers.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := s.Chain(head); err != nil {
					errc <- err
					return
				}
				if _, err := s.Blob(head); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestOpenCorruptStore pins ErrCorruptStore: missing blobs, tampered blobs,
// missing packs, and index gaps all name the offending version instead of
// being skipped or reported anonymously.
func TestOpenCorruptStore(t *testing.T) {
	build := func(t *testing.T) (string, []string) {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		d1, d2 := gen.Toy()
		v1, err := s.Commit(d1, "", "2016")
		if err != nil {
			t.Fatal(err)
		}
		v2, err := s.Commit(d2, v1.ID, "2017")
		if err != nil {
			t.Fatal(err)
		}
		return dir, []string{v1.ID, v2.ID}
	}

	t.Run("missing pack file", func(t *testing.T) {
		dir, ids := build(t)
		if err := os.Remove(filepath.Join(dir, "packs", ids[1]+".pack")); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir)
		if !errors.Is(err, ErrCorruptStore) {
			t.Fatalf("err = %v, want ErrCorruptStore", err)
		}
		if !strings.Contains(err.Error(), ids[1]) {
			t.Errorf("error %q does not name the corrupt version %s", err, ids[1])
		}
	})

	t.Run("corrupt pack body surfaces on read", func(t *testing.T) {
		dir, ids := build(t)
		if err := os.WriteFile(filepath.Join(dir, "packs", ids[0]+".pack"), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir) // presence check passes; decode fails lazily
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Blob(ids[0])
		if !errors.Is(err, ErrCorruptStore) || !strings.Contains(err.Error(), ids[0]) {
			t.Fatalf("Blob err = %v, want ErrCorruptStore naming %s", err, ids[0])
		}
		_, err = s.Checkout(ids[1]) // delta over the corrupt anchor
		if !errors.Is(err, ErrCorruptStore) {
			t.Fatalf("Checkout err = %v, want ErrCorruptStore", err)
		}
	})

	t.Run("tampered pack body that still decodes", func(t *testing.T) {
		dir, ids := build(t)
		s, _ := Open(dir)
		blob, err := s.Blob(ids[0])
		if err != nil {
			t.Fatal(err)
		}
		// A perfectly well-formed pack holding subtly wrong data: one digit
		// altered, row count intact. Decode succeeds; only the content-hash
		// re-verification can catch it.
		evil := bytes.Replace(blob, []byte("23000"), []byte("23001"), 1)
		if bytes.Equal(evil, blob) {
			t.Fatal("tamper did not apply")
		}
		v, _ := s.Get(ids[0])
		pack, err := encodePack(packMeta{Format: packFormat, ID: ids[0], Kind: packFull, Rows: v.Rows}, evil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "packs", ids[0]+".pack"), pack, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir) // fresh store: no warm caches masking the read
		if err != nil {
			t.Fatal(err)
		}
		_, err = s2.Blob(ids[0])
		if !errors.Is(err, ErrCorruptStore) || !strings.Contains(err.Error(), ids[0]) {
			t.Fatalf("Blob err = %v, want ErrCorruptStore naming %s", err, ids[0])
		}
		// The delta above the tampered anchor fails the same way.
		if _, err := s2.Checkout(ids[1]); !errors.Is(err, ErrCorruptStore) {
			t.Fatalf("Checkout err = %v, want ErrCorruptStore", err)
		}
	})

	t.Run("legacy store with missing blob", func(t *testing.T) {
		dir, ids := build(t)
		s, _ := Open(dir)
		blobs := map[string][]byte{}
		for _, id := range ids {
			b, err := s.Blob(id)
			if err != nil {
				t.Fatal(err)
			}
			blobs[id] = b
		}
		legacyDir := t.TempDir()
		delete(blobs, ids[1])
		writeLegacyLayout(t, legacyDir, s.Log(), blobs)
		_, err := Open(legacyDir)
		if !errors.Is(err, ErrCorruptStore) || !strings.Contains(err.Error(), ids[1]) {
			t.Fatalf("err = %v, want ErrCorruptStore naming %s", err, ids[1])
		}
	})

	t.Run("legacy store with tampered blob", func(t *testing.T) {
		dir, ids := build(t)
		s, _ := Open(dir)
		blobs := map[string][]byte{}
		for _, id := range ids {
			b, err := s.Blob(id)
			if err != nil {
				t.Fatal(err)
			}
			blobs[id] = b
		}
		blobs[ids[0]] = append(blobs[ids[0]], []byte("Zoe,POL,1,1,1,1\n")...)
		legacyDir := t.TempDir()
		writeLegacyLayout(t, legacyDir, s.Log(), blobs)
		_, err := Open(legacyDir)
		if !errors.Is(err, ErrCorruptStore) || !strings.Contains(err.Error(), ids[0]) {
			t.Fatalf("err = %v, want ErrCorruptStore naming %s", err, ids[0])
		}
	})

	t.Run("manifest missing pack entry", func(t *testing.T) {
		dir, ids := build(t)
		path := filepath.Join(dir, "manifest.json")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		mangled := bytes.Replace(data, []byte(`"`+ids[1]+`": {`), []byte(`"x`+ids[1][1:]+`": {`), 1)
		if bytes.Equal(mangled, data) {
			t.Fatal("mangling did not apply")
		}
		if err := os.WriteFile(path, mangled, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Open(dir)
		if !errors.Is(err, ErrCorruptStore) {
			t.Fatalf("err = %v, want ErrCorruptStore", err)
		}
	})
}

// TestChainStorageShrinks pins the acceptance criterion: on the 8-step
// multi-target chain dataset, pack storage is at least 3x smaller than the
// per-version full CSVs the legacy layout kept.
func TestChainStorageShrinks(t *testing.T) {
	snaps, err := gen.Chain(gen.ChainConfig{}) // defaults: 120 entities, 8 steps
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	commitChain(t, s, snaps)
	st := s.Stats()
	if st.LogicalBytes == 0 || st.PackBytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.PackBytes*3 > st.LogicalBytes {
		t.Errorf("pack bytes %d not >= 3x smaller than logical bytes %d (compression %.2fx)",
			st.PackBytes, st.LogicalBytes, st.Compression)
	}
	if st.DeltaPacks == 0 || st.FullPacks == 0 {
		t.Errorf("packs = %d full / %d delta, want both kinds", st.FullPacks, st.DeltaPacks)
	}
}

// TestWarmCheckoutDoesNoParsing pins the lazy-cache acceptance criterion: a
// warm Checkout serves from the LRU — zero CSV parses, and far fewer
// allocations than the cold path.
func TestWarmCheckoutDoesNoParsing(t *testing.T) {
	snaps, err := gen.Chain(gen.ChainConfig{N: 60, Steps: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenWith("", Options{TableCache: len(snaps)})
	if err != nil {
		t.Fatal(err)
	}
	ids := commitChain(t, s, snaps)
	for _, id := range ids { // cold walk fills the cache
		if _, err := s.Checkout(id); err != nil {
			t.Fatal(err)
		}
	}
	cold := s.Stats().Parses
	if cold != int64(len(ids)) {
		t.Fatalf("cold walk parsed %d times, want %d", cold, len(ids))
	}
	for pass := 0; pass < 3; pass++ { // warm walks: no parsing at all
		for _, id := range ids {
			if _, err := s.Checkout(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if warm := s.Stats().Parses; warm != cold {
		t.Errorf("warm walks parsed %d more times, want 0", warm-cold)
	}
	// Allocation pin: a warm checkout is a clone, not a parse. Parsing this
	// snapshot costs thousands of allocations; the clone costs ~40.
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.Checkout(ids[0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 200 {
		t.Errorf("warm Checkout costs %.0f allocs, want the no-parse clone path (<= 200)", allocs)
	}
}

// packReadFS is the OS filesystem, counting ReadFile calls on pack files.
type packReadFS struct {
	vfs.OS
	reads atomic.Int64
}

func (f *packReadFS) ReadFile(path string) ([]byte, error) {
	if strings.HasSuffix(path, ".pack") {
		f.reads.Add(1)
	}
	return f.OS.ReadFile(path)
}

// TestCheckoutWalkReadsEachPackOnce pins the rebuild start point: on a
// freshly opened store, a root → head checkout walk rebuilds each version
// from its parent's cached blob, so it reads each pack once instead of
// every version's whole chain back to its anchor.
func TestCheckoutWalkReadsEachPackOnce(t *testing.T) {
	snaps, err := gen.Chain(gen.ChainConfig{N: 120, Steps: 19, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids := commitChain(t, s, snaps)
	if st := s.Stats(); st.FullPacks != 3 || st.DeltaPacks != 17 {
		t.Fatalf("packs = %d full / %d delta, want 3 / 17 (an anchor every %d)", st.FullPacks, st.DeltaPacks, DefaultAnchorEvery)
	}
	fsys := &packReadFS{}
	cold, err := OpenWith(dir, Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if _, err := cold.Checkout(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := fsys.reads.Load(); got != int64(len(ids)) {
		t.Errorf("walk read %d pack files, want %d (one per version)", got, len(ids))
	}
}

// TestCachedParentRebuildRejectsTamperedDelta pins the hash check on a
// rebuild that starts from a cached parent blob: a child delta pack that
// still decodes but carries one wrong cell fails Checkout and Blob with
// ErrCorruptStore naming the child, and nothing of it is cached.
func TestCachedParentRebuildRejectsTamperedDelta(t *testing.T) {
	snaps, err := gen.Chain(gen.ChainConfig{N: 40, Steps: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids := commitChain(t, s, snaps)
	parent, child := ids[0], ids[1]
	if s.packs[child].Kind != packDelta || !tamperPatch(t, s, child) {
		t.Fatal("child is not a delta with a patch op to tamper with")
	}

	fsys := &packReadFS{}
	fresh, err := OpenWith(dir, Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Blob(parent); err != nil {
		t.Fatal(err)
	}
	before := fsys.reads.Load()
	if _, err := fresh.Checkout(child); !errors.Is(err, ErrCorruptStore) || !strings.Contains(err.Error(), child) {
		t.Errorf("Checkout err = %v, want ErrCorruptStore naming %s", err, child)
	}
	if got := fsys.reads.Load() - before; got != 1 {
		t.Errorf("child rebuild read %d packs, want 1 (its own, on top of the cached parent)", got)
	}
	if _, err := fresh.Blob(child); !errors.Is(err, ErrCorruptStore) || !strings.Contains(err.Error(), child) {
		t.Errorf("Blob err = %v, want ErrCorruptStore naming %s", err, child)
	}
	if st := fresh.Stats(); st.Blobs.Entries != 1 || st.Tables.Entries != 0 {
		t.Errorf("cached %d blobs and %d tables, want only the parent's blob", st.Blobs.Entries, st.Tables.Entries)
	}
}
