package store

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"charles/internal/diff"
	"charles/internal/gen"
	"charles/internal/table"
)

// TestChangesDecodesOps pins the first-class ChangeSet surface: a delta
// version's ops arrive decoded (with column names resolved), anchors and
// roots report Materialized, unknown ids are ErrNotFound.
func TestChangesDecodesOps(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	schema := table.Schema{
		{Name: "id", Type: table.String},
		{Name: "pay", Type: table.Float},
	}
	v1t := table.MustNew(schema)
	for i := 0; i < 6; i++ {
		v1t.MustAppendRow(table.S(fmt.Sprintf("k%d", i)), table.F(float64(i)+0.5))
	}
	if err := v1t.SetKey("id"); err != nil {
		t.Fatal(err)
	}
	v2t := v1t.Clone()
	if err := v2t.MustColumn("pay").Set(2, table.F(99.5)); err != nil {
		t.Fatal(err)
	}
	v1, err := s.Commit(v1t, "", "root")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Commit(v2t, v1.ID, "patch")
	if err != nil {
		t.Fatal(err)
	}

	cs, err := s.Changes(v2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Materialized || cs.Base != v1.ID || cs.Version != v2.ID {
		t.Fatalf("change set header = %+v", cs)
	}
	if !reflect.DeepEqual(cs.Columns, []string{"id", "pay"}) {
		t.Errorf("columns = %v", cs.Columns)
	}
	if len(cs.Removed) != 0 || len(cs.Inserted) != 0 || len(cs.Patched) != 1 {
		t.Fatalf("ops = %+v", cs)
	}
	p := cs.Patched[0]
	if p.Key != "k2" || !reflect.DeepEqual(p.Cols, []int{1}) || !reflect.DeepEqual(p.Vals, []string{"99.5"}) {
		t.Errorf("patch = %+v", p)
	}

	root, err := s.Changes(v1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !root.Materialized || len(root.Patched) != 0 {
		t.Errorf("root change set = %+v", root)
	}
	if _, err := s.Changes("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown id: err = %v", err)
	}
}

// TestDiffResultDeltaVsAlignFuzz is the 5-seed differential batch: on random
// mutation chains (cell edits, inserts, deletes, adversarial string cells),
// the delta-native answer must be bit-identical to the checkout+align
// answer for every version pair — adjacent pairs, multi-hop delta-connected
// pairs, anchor-crossing pairs (align fallback), reversed pairs, and the
// trivial self-pair.
func TestDiffResultDeltaVsAlignFuzz(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		s, err := OpenWith("", Options{AnchorEvery: 4, TableCache: 64})
		if err != nil {
			t.Fatal(err)
		}
		snaps, err := gen.MutateChain(gen.FuzzConfig{N: 30, Steps: 8, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ids := commitChain(t, s, snaps)
		native, fallback := 0, 0
		for i := 0; i < len(ids); i++ {
			for j := i; j < len(ids); j++ {
				got, viaDelta, err := s.DiffResult(ids[i], ids[j], 1e-9)
				if err != nil {
					t.Fatalf("seed %d: DiffResult(%d,%d): %v", seed, i, j, err)
				}
				src, err := s.Checkout(ids[i])
				if err != nil {
					t.Fatal(err)
				}
				tgt, err := s.Checkout(ids[j])
				if err != nil {
					t.Fatal(err)
				}
				want, err := diff.ResultFromPair(src, tgt, 1e-9)
				if err != nil {
					t.Fatalf("seed %d: reference(%d,%d): %v", seed, i, j, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: pair (%d,%d) delta=%v differs\ngot:  %+v\nwant: %+v",
						seed, i, j, viaDelta, got, want)
				}
				if viaDelta {
					native++
				} else if i != j {
					fallback++
				}
				// Reversed direction is never delta-connected (deltas point
				// child→parent) but must agree with its own reference.
				if j == i+1 {
					rev, viaDelta, err := s.DiffResult(ids[j], ids[i], 1e-9)
					if err != nil {
						t.Fatal(err)
					}
					if viaDelta {
						t.Fatalf("seed %d: reverse pair (%d,%d) claimed delta-native", seed, j, i)
					}
					wantRev, err := diff.ResultFromPair(tgt, src, 1e-9)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(rev, wantRev) {
						t.Fatalf("seed %d: reverse pair (%d,%d) differs", seed, j, i)
					}
				}
			}
		}
		if native == 0 || fallback == 0 {
			t.Fatalf("seed %d: exercised %d delta-native and %d fallback pairs; want both paths covered",
				seed, native, fallback)
		}
	}
}

// TestDiffResultCRFallback pins the full-pack fallback: CR-bearing blobs are
// stored whole (no deltas exist), so change queries take the align path —
// and still answer correctly.
func TestDiffResultCRFallback(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	schema := table.Schema{{Name: "id", Type: table.String}, {Name: "note", Type: table.String}}
	v1t := table.MustNew(schema)
	v1t.MustAppendRow(table.S("a"), table.S("line1\r\nline2"))
	v1t.MustAppendRow(table.S("b"), table.S("plain"))
	if err := v1t.SetKey("id"); err != nil {
		t.Fatal(err)
	}
	v2t := v1t.Clone()
	if err := v2t.MustColumn("note").Set(1, table.S("edited")); err != nil {
		t.Fatal(err)
	}
	v1, err := s.Commit(v1t, "", "root")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Commit(v2t, v1.ID, "edit")
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DeltaPacks != 0 {
		t.Fatalf("CR chain stored %d delta packs, want 0", st.DeltaPacks)
	}
	cs, err := s.Changes(v2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Materialized {
		t.Error("CR-forced full pack should report Materialized")
	}
	res, native, err := s.DiffResult(v1.ID, v2.ID, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if native {
		t.Error("full-pack pair claimed delta-native")
	}
	if res.UpdateDistance != 1 || res.Changes[0].Key != "b" {
		t.Errorf("fallback result = %+v", res)
	}
}

// TestDeltaEncodingWithSeparatorKeys is the store half of the key-aliasing
// regression: multi-column keys whose cells contain table.KeySep must still
// delta-encode and answer delta-native change queries correctly.
func TestDeltaEncodingWithSeparatorKeys(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	schema := table.Schema{
		{Name: "k1", Type: table.String},
		{Name: "k2", Type: table.String},
		{Name: "pay", Type: table.Float},
	}
	v1t := table.MustNew(schema)
	v1t.MustAppendRow(table.S("a"+table.KeySep+"b"), table.S("c"), table.F(1.5))
	v1t.MustAppendRow(table.S("a"), table.S("b"+table.KeySep+"c"), table.F(2.5))
	for i := 0; i < 10; i++ {
		v1t.MustAppendRow(table.S(fmt.Sprintf("p%d", i)), table.S("q"), table.F(float64(i)+0.5))
	}
	if err := v1t.SetKey("k1", "k2"); err != nil {
		t.Fatal(err)
	}
	v2t := v1t.Clone()
	if err := v2t.MustColumn("pay").Set(0, table.F(9.5)); err != nil {
		t.Fatal(err)
	}
	v1, err := s.Commit(v1t, "", "root")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Commit(v2t, v1.ID, "edit")
	if err != nil {
		t.Fatal(err)
	}
	// Pre-fix, the aliased keys read as duplicates and forced a full pack.
	if st := s.Stats(); st.DeltaPacks != 1 {
		t.Fatalf("separator-bearing keys fell back to full packs: %+v", st)
	}
	back, err := s.Checkout(v2.ID)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.Checkout(v1.ID)
	if err != nil {
		t.Fatal(err)
	}
	res, native, err := s.DiffResult(v1.ID, v2.ID, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	want, err := diff.ResultFromPair(ref, back, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !native || !reflect.DeepEqual(res, want) {
		t.Fatalf("delta-native diff over separator keys: native=%v\ngot:  %+v\nwant: %+v", native, res, want)
	}
	if res.UpdateDistance != 1 {
		t.Errorf("update distance = %d, want 1", res.UpdateDistance)
	}
}

// TestStatsEmptyStoreCompression pins the empty-store ratio: 1.0, not a 0/0
// NaN that would poison the /stats JSON.
func TestStatsEmptyStoreCompression(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Compression != 1.0 {
		t.Fatalf("empty-store compression = %v, want 1.0", st.Compression)
	}
	if data, err := json.Marshal(st); err != nil {
		t.Fatalf("stats must serialize: %v (%s)", err, data)
	}
}

// TestDecodeErrorsAreTypedCorruption audits the decode paths: every way a
// pack can fail to decode must surface as ErrCorruptStore naming the
// offending version, from Checkout, Blob, and Changes alike.
func TestDecodeErrorsAreTypedCorruption(t *testing.T) {
	newDiskChain := func(t *testing.T) (*Store, []string, []*table.Table) {
		t.Helper()
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		snaps, err := gen.MutateChain(gen.FuzzConfig{N: 12, Steps: 3, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		ids := commitChain(t, s, snaps)
		return s, ids, snaps
	}
	reopen := func(t *testing.T, s *Store) *Store {
		t.Helper()
		fresh, err := Open(s.dir)
		if err != nil {
			t.Fatal(err)
		}
		return fresh
	}
	deltaID := func(t *testing.T, s *Store, ids []string) string {
		t.Helper()
		for _, id := range ids {
			if s.packs[id].Kind == packDelta {
				return id
			}
		}
		t.Fatal("chain has no delta pack")
		return ""
	}
	check := func(t *testing.T, what, id string, err error) {
		t.Helper()
		if !errors.Is(err, ErrCorruptStore) {
			t.Errorf("%s: err = %v, want ErrCorruptStore", what, err)
		}
		if err == nil || !strings.Contains(err.Error(), id) {
			t.Errorf("%s: error %q does not name version %s", what, err, id)
		}
	}

	t.Run("garbage pack bytes", func(t *testing.T) {
		s, ids, _ := newDiskChain(t)
		id := deltaID(t, s, ids)
		if err := os.WriteFile(s.packPath(id), []byte("not gzip"), 0o644); err != nil {
			t.Fatal(err)
		}
		s = reopen(t, s)
		_, err := s.Changes(id)
		check(t, "Changes", id, err)
		_, err = s.Checkout(id)
		check(t, "Checkout", id, err)
		_, err = s.Blob(id)
		check(t, "Blob", id, err)
	})

	t.Run("undecodable delta ops", func(t *testing.T) {
		s, ids, _ := newDiskChain(t)
		id := deltaID(t, s, ids)
		// A well-formed gzip pack whose op list is malformed CSV ops.
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		head, err := json.Marshal(packMeta{Format: packFormat, ID: id, Kind: packDelta, Base: s.packs[id].Base, Rows: 1})
		if err != nil {
			t.Fatal(err)
		}
		zw.Write(append(head, '\n'))
		zw.Write([]byte("justonefield\n"))
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.packPath(id), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		s = reopen(t, s)
		_, err = s.Changes(id)
		check(t, "Changes", id, err)
		_, err = s.Checkout(id)
		check(t, "Checkout", id, err)
	})

	t.Run("pack holds wrong version", func(t *testing.T) {
		s, ids, _ := newDiskChain(t)
		id := deltaID(t, s, ids)
		other := ids[0]
		data, err := os.ReadFile(s.packPath(other))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.packPath(id), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s = reopen(t, s)
		_, err = s.Changes(id)
		check(t, "Changes", id, err)
		_, err = s.Checkout(id)
		check(t, "Checkout", id, err)
	})

	t.Run("missing pack file", func(t *testing.T) {
		s, ids, _ := newDiskChain(t)
		id := deltaID(t, s, ids)
		// Remove behind an already-open store. Checkout may still be served
		// from the commit-warmed blob cache (by design), but the decode path
		// and a re-open must both report typed corruption.
		if err := os.Remove(s.packPath(id)); err != nil {
			t.Fatal(err)
		}
		_, err := s.Changes(id)
		check(t, "Changes", id, err)
		_, err = Open(s.dir)
		check(t, "Open", id, err)
	})
}

// TestDiffResultSelfPair pins the trivial case: a version diffed against
// itself is empty and delta-native.
func TestDiffResultSelfPair(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := gen.MutateChain(gen.FuzzConfig{N: 10, Steps: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ids := commitChain(t, s, snaps)
	res, native, err := s.DiffResult(ids[0], ids[0], 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !native || res.UpdateDistance != 0 || len(res.Removed)+len(res.Inserted) != 0 {
		t.Fatalf("self diff = %+v (native %v)", res, native)
	}
	if _, _, err := s.DiffResult("nope", ids[0], 1e-9); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown from: err = %v", err)
	}
}

// TestDiffResultRejectsTamperedOps pins the tamper gate on the delta-native
// path: a delta pack that still decodes but whose op values were altered
// must error like every other read path (the reconstruction no longer
// hashes to the content id), not serve a fabricated answer.
func TestDiffResultRejectsTamperedOps(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := gen.MutateChain(gen.FuzzConfig{N: 15, Steps: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ids := commitChain(t, s, snaps)
	var child string
	for _, id := range ids {
		if s.packs[id].Kind == packDelta {
			child = id
			break
		}
	}
	if child == "" {
		t.Fatal("chain has no delta pack")
	}
	parent := s.versions[child].Parent
	if !tamperPatch(t, s, child) {
		t.Skip("no patch op to tamper with in this chain")
	}

	fresh, err := Open(dir) // cold caches: nothing pre-verified
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fresh.DiffResult(parent, child, 1e-9); !errors.Is(err, ErrCorruptStore) {
		t.Fatalf("tampered delta pack: DiffResult err = %v, want ErrCorruptStore", err)
	}
	if _, err := fresh.Checkout(child); !errors.Is(err, ErrCorruptStore) {
		t.Fatalf("tampered delta pack: Checkout err = %v, want ErrCorruptStore", err)
	}
}

// tamperPatch rewrites id's delta pack with its first patch value changed:
// the pack still decodes, but the blob it rebuilds no longer hashes to id.
// It reports false, changing nothing, when the pack holds no patch op.
func tamperPatch(t *testing.T, s *Store, id string) bool {
	t.Helper()
	data, err := os.ReadFile(s.packPath(id))
	if err != nil {
		t.Fatal(err)
	}
	meta, body, err := decodePack(data)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := parseOps(body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ops {
		if ops[i].kind == '~' && len(ops[i].vals) > 0 {
			ops[i].vals[0] += "tampered"
			repacked, err := encodePack(meta, nil, ops)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.packPath(id), repacked, 0o644); err != nil {
				t.Fatal(err)
			}
			return true
		}
	}
	return false
}

// TestParseOpsRejectsNegativeColumnIndex pins the decode-level guard: a
// hand-edited op with a negative column index must fail to decode (it could
// otherwise panic every consumer that indexes the header by it).
func TestParseOpsRejectsNegativeColumnIndex(t *testing.T) {
	if _, err := parseOps([]byte("~,k,-1,v\n")); err == nil {
		t.Fatal("negative column index decoded")
	}
	if _, err := parseOps([]byte("~,k,1,v\n")); err != nil {
		t.Fatalf("valid op rejected: %v", err)
	}
}

// TestChangesHeaderProbeIsNotACacheMiss: Changes resolves a delta version's
// column header from its base's decoded table when that is resident, else
// from the base's blob, with no parse. The table probe fills nothing, so it
// must not count as a table-cache miss — Stats documents each parse as a
// miss filled.
func TestChangesHeaderProbeIsNotACacheMiss(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := gen.Chain(gen.ChainConfig{N: 30, Steps: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	ids := commitChain(t, s, snaps)
	cs, err := s.Changes(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if cs.Materialized || len(cs.Columns) == 0 {
		t.Fatalf("Changes(v2) = %+v, want a delta with its header resolved", cs)
	}
	if st := s.Stats(); st.Tables.Misses != st.Parses {
		t.Errorf("table-cache misses = %d, parses = %d; want equal", st.Tables.Misses, st.Parses)
	}
}

// TestColdChangesReadsDeltaAndAnchor pins where a cold Changes takes its
// header from: the base's chain anchor, not a rebuild of the base. On a
// freshly opened store, Changes of a chain's 8th version reads two pack
// files — its own delta and the anchor — and its columns are the header.
func TestColdChangesReadsDeltaAndAnchor(t *testing.T) {
	snaps, err := gen.Chain(gen.ChainConfig{N: 120, Steps: 7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids := commitChain(t, s, snaps)
	if st := s.Stats(); st.FullPacks != 1 || st.DeltaPacks != 7 {
		t.Fatalf("packs = %d full / %d delta, want 1 / 7", st.FullPacks, st.DeltaPacks)
	}
	fsys := &packReadFS{}
	cold, err := OpenWith(dir, Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := cold.Changes(ids[7])
	if err != nil {
		t.Fatal(err)
	}
	if want := snaps[0].Schema().Names(); !reflect.DeepEqual(cs.Columns, want) {
		t.Errorf("columns = %v, want %v", cs.Columns, want)
	}
	if got := fsys.reads.Load(); got != 2 {
		t.Errorf("cold Changes read %d pack files, want 2 (its delta and the anchor)", got)
	}
}
