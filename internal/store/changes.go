package store

import (
	"bytes"
	"fmt"

	"charles/internal/csvio"
	"charles/internal/diff"
)

// ChangeSet is the first-class decoded-delta surface of one version: the
// exact row-level ops (removed keys, inserted rows, cell patches) its delta
// pack persists, or Materialized=true for versions stored as full snapshots
// (anchors, roots, full-pack fallbacks). It is diff.ChangeSet, so the diff
// layer can answer change queries from it without importing the store.
type ChangeSet = diff.ChangeSet

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
			cs.Inserted = append(cs.Inserted, diff.InsertedRow{Key: op.key, Cells: op.row})
		case '~':
			cs.Patched = append(cs.Patched, diff.RowPatch{Key: op.key, Cols: op.cols, Vals: op.vals})
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

// deltaPath reports whether toID is reachable from fromID through delta
// packs alone (every hop a delta, no anchor in between) and returns the hop
// ids oldest-first. fromID == toID is trivially connected with no hops.
func (s *Store) deltaPath(fromID, toID string) ([]string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var hops []string
	cur := toID
	for cur != fromID {
		pi := s.packs[cur]
		if pi == nil || pi.Kind != packDelta || pi.Base == "" || len(hops) > len(s.packs) {
			return nil, false
		}
		hops = append(hops, cur)
		cur = pi.Base
	}
	for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
		hops[i], hops[j] = hops[j], hops[i]
	}
	return hops, true
}

// DiffResult answers a change query between two stored versions: removed and
// inserted entities plus every modified cell, compared with the given
// absolute tolerance. When toID is delta-connected to fromID (every pack on
// the path is a delta), the answer is assembled straight from the decoded
// delta ops and one checkout of fromID — no reconstruction or parse of toID,
// no full row alignment — and deltaNative reports true. Otherwise (anchor on
// the path, diff against an ancestor's ancestor across an anchor, unrelated
// versions, or ops the delta evaluator cannot faithfully answer) it falls
// back to the checkout+align path, which returns the bit-identical result
// on every schema-stable pair (see diff.ResultFromChangeSets for the one
// deliberate asymmetry: type-narrowing deltas are answered delta-natively
// under the source schema, where the align path refuses the pair).
// Answers are memoized in an LRU keyed (from, to, tol) — version content is
// immutable, so a computed answer never goes stale and a repeated query is a
// cache hit. The returned Result is shared: callers must not mutate it.
func (s *Store) DiffResult(fromID, toID string, tol float64) (res *diff.Result, deltaNative bool, err error) {
	if _, err := s.Get(fromID); err != nil {
		return nil, false, err
	}
	if _, err := s.Get(toID); err != nil {
		return nil, false, err
	}
	ans, _, err := s.results.Do(fmt.Sprintf("%s|%s|%g", fromID, toID, tol), func() (*diffAnswer, error) {
		return s.answerDiff(fromID, toID, tol)
	})
	if err != nil {
		return nil, false, err
	}
	return ans.res, ans.native, nil
}

// answerDiff computes one change query for DiffResult (a diff-answer LRU
// fill).
func (s *Store) answerDiff(fromID, toID string, tol float64) (*diffAnswer, error) {
	if hops, ok := s.deltaPath(fromID, toID); ok {
		sets := make([]*ChangeSet, len(hops))
		for i, id := range hops {
			var err error
			if sets[i], err = s.changeSetFor(id); err != nil {
				return nil, err
			}
		}
		parent, err := s.tableFor(fromID)
		if err != nil {
			return nil, err
		}
		if res, rerr := diff.ResultFromChangeSets(parent, sets, tol); rerr == nil {
			// Trust the ops only once toID's reconstruction has been
			// content-verified: blobFor re-hashes the blob the very ops on
			// this path compose into, so a decodable-but-tampered delta
			// pack errors here exactly as it would on Checkout instead of
			// slipping a fabricated answer through. The blob LRU makes
			// this a cache hit on warm stores and a one-time (parse-free)
			// check on cold ones.
			if _, verr := s.blobFor(toID); verr != nil {
				return nil, verr
			}
			return &diffAnswer{res: res, native: true}, nil
		}
		// Not answerable from deltas (non-canonical cells, compose
		// anomaly): the align path below re-derives the answer from the
		// materialized snapshots and surfaces any real corruption.
	}
	src, err := s.tableFor(fromID)
	if err != nil {
		return nil, err
	}
	tgt, err := s.tableFor(toID)
	if err != nil {
		return nil, err
	}
	res, err := diff.ResultFromPair(src, tgt, tol)
	if err != nil {
		return nil, err
	}
	return &diffAnswer{res: res}, nil
}
