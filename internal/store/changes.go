package store

import (
	"bytes"
	"fmt"

	"charles/internal/csvio"
	"charles/internal/diff"
)

// ChangeSet is the first-class decoded-delta surface of one version: the
// exact row-level ops its delta pack persists — removed keys, inserted rows
// and cell patches, addressed by the encoded primary key (table.EncodeKey
// encoding) with cell texts in canonical CSV form. Versions stored as full
// snapshots (anchors, roots, full-pack fallbacks) have no ops and set
// Materialized instead.
type ChangeSet struct {
	// Version is the snapshot the ops produce.
	Version string
	// Base is the snapshot the ops apply to ("" for materialized versions).
	Base string
	// Materialized marks versions stored whole: no delta ops exist.
	Materialized bool
	// Columns names the canonical header in schema order; patch and insert
	// cell indices refer to it. Changes fills it; the cached bare set
	// leaves it empty.
	Columns []string

	Removed  []string      // encoded keys deleted from the base, key-sorted
	Inserted []InsertedRow // rows whose key is absent from the base, key-sorted
	Patched  []RowPatch    // cell rewrites of rows present in both, key-sorted
}

// InsertedRow is one inserted row: its encoded key and the full record in
// canonical column order.
type InsertedRow struct {
	Key   string
	Cells []string
}

// RowPatch is one patched row: the changed column indices (canonical order)
// and the new cell texts, parallel slices.
type RowPatch struct {
	Key  string
	Cols []int
	Vals []string
}

// changeSetFor returns id's decoded ops through the change-set LRU. The
// returned set is shared and must not be mutated; Columns is left empty
// (Changes resolves it for presentation callers).
func (s *Store) changeSetFor(id string) (*ChangeSet, error) {
	if err := s.guard(); err != nil {
		return nil, err
	}
	cs, _, err := s.changes.Do(id, func() (*ChangeSet, error) { return s.decodeChangeSet(id) })
	return cs, err
}

// decodeChangeSet reads and decodes id's delta pack (a change-set LRU fill).
func (s *Store) decodeChangeSet(id string) (*ChangeSet, error) {
	var (
		vok, pok bool
		pi       *packInfo
		mem      []byte
	)
	func() {
		s.mu.RLock()
		defer s.mu.RUnlock()
		_, vok = s.versions[id]
		pi, pok = s.packs[id]
		mem = s.mem[id]
	}()
	if !vok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if !pok {
		return nil, fmt.Errorf("%w: version %s has no pack index entry", ErrCorruptStore, id)
	}
	cs := &ChangeSet{Version: id}
	if pi.Kind != packDelta {
		cs.Materialized = true
		return cs, nil
	}
	cs.Base = pi.Base
	data := mem
	if data == nil {
		var err error
		// Through the vfs seam, like every read the crash-injection suite
		// must be able to fault — a direct os.ReadFile here would read the
		// real filesystem out from under a faultfs-backed store.
		data, err = s.fs.ReadFile(s.packPath(id))
		if err != nil {
			return nil, fmt.Errorf("%w: version %s: pack file: %v", ErrCorruptStore, id, err)
		}
	}
	meta, body, err := decodePack(data)
	if err != nil {
		return nil, corruptVersion(id, err)
	}
	if meta.ID != id {
		return nil, fmt.Errorf("%w: version %s: pack holds %s", ErrCorruptStore, id, meta.ID)
	}
	if meta.Kind != packDelta {
		return nil, fmt.Errorf("%w: version %s: manifest says delta, pack says %q", ErrCorruptStore, id, meta.Kind)
	}
	ops, err := parseOps(body)
	if err != nil {
		return nil, corruptVersion(id, err)
	}
	for _, op := range ops {
		switch op.kind {
		case '-':
			cs.Removed = append(cs.Removed, op.key)
		case '+':
			cs.Inserted = append(cs.Inserted, InsertedRow{Key: op.key, Cells: op.row})
		case '~':
			cs.Patched = append(cs.Patched, RowPatch{Key: op.key, Cols: op.cols, Vals: op.vals})
		}
	}
	return cs, nil
}

// Changes returns version id's decoded delta ops: what changed, row by row
// and cell by cell, between its parent and itself — served straight from the
// delta pack, without reconstructing either snapshot. Versions stored whole
// report Materialized=true and carry no ops. For delta versions the result's
// Columns names the canonical header, so patch column indices are
// interpretable. The returned set is shared with the store's cache: callers
// must treat it as read-only.
func (s *Store) Changes(id string) (*ChangeSet, error) {
	cs, err := s.changeSetFor(id)
	if err != nil {
		return nil, err
	}
	if cs.Materialized || cs.Columns != nil {
		return cs, nil
	}
	// Resolve the canonical header once: from the base's decoded table when
	// it happens to be resident, else from the blob of the base's chain
	// anchor (cached, hash-verified). A delta pack only ever joins versions
	// of one schema and applyDelta carries the header forward, so every
	// version on the chain has the anchor's header, and the anchor's blob is
	// one full pack where the base's own may be a rebuild of many. The table
	// probe is a peek: a miss fills nothing, so it is not counted as a
	// table-cache request. The column-enriched set replaces the cache entry
	// — cached instances are immutable, so later calls are O(1) and
	// concurrent readers of the bare instance are unaffected.
	var header []string
	if t, ok := s.tables.peek(cs.Base); ok {
		header = t.Schema().Names()
	} else {
		_, chain, err := s.plan(cs.Base)
		if err != nil {
			return nil, err
		}
		anchor := chain[len(chain)-1].id
		blob, err := s.blobFor(anchor)
		if err != nil {
			return nil, err
		}
		if header, err = csvio.NewRowReader(bytes.NewReader(blob)).Header(); err != nil {
			return nil, fmt.Errorf("%w: version %s: anchor header: %v", ErrCorruptStore, anchor, err)
		}
	}
	out := *cs // shallow copy: never mutate the cached instance
	out.Columns = header
	s.changes.add(id, &out)
	return &out, nil
}

// DiffResult answers a change query between two stored versions: removed and
// inserted entities plus every modified cell, compared with the given
// absolute tolerance. It is diff.ResultFromPair over the two versions'
// decoded tables, so the answer does not depend on how the store packed
// them; a pair ResultFromPair refuses (different schemas) is refused here
// too. The target's table comes from a hash-verified blob, so a tampered
// pack errors instead of yielding an answer. Answers are memoized in an LRU
// keyed (from, to, tol) — version content is immutable, so a computed
// answer never goes stale and a repeated query is a cache hit. The returned
// Result is shared: callers must not mutate it. The bool result is always
// false. It reported an answer built from delta ops; that path is gone, and
// the result stays until its last reader, the benchmark's replay, stops
// asking for it.
func (s *Store) DiffResult(fromID, toID string, tol float64) (*diff.Result, bool, error) {
	if _, err := s.Get(fromID); err != nil {
		return nil, false, err
	}
	if _, err := s.Get(toID); err != nil {
		return nil, false, err
	}
	res, _, err := s.results.Do(fmt.Sprintf("%s|%s|%g", fromID, toID, tol), func() (*diff.Result, error) {
		src, err := s.tableFor(fromID)
		if err != nil {
			return nil, err
		}
		tgt, err := s.tableFor(toID)
		if err != nil {
			return nil, err
		}
		return diff.ResultFromPair(src, tgt, tol)
	})
	return res, false, err
}
