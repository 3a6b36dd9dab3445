package store

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"charles/internal/csvio"
)

// VerifyIssue is one problem Verify found with one version.
type VerifyIssue struct {
	Version string `json:"version"`
	Problem string `json:"problem"`
}

// VerifyReport is the result of a full fsck-style store walk.
type VerifyReport struct {
	// Versions is how many manifest entries were checked.
	Versions int `json:"versions"`
	// Verified is how many reconstructed and hashed back to their
	// content id.
	Verified int `json:"verified"`
	// Issues lists every version that failed: missing or undecodable
	// packs, broken delta chains, reconstructions that no longer hash to
	// the version id, or metadata that disagrees with the data.
	Issues []VerifyIssue `json:"issues,omitempty"`
	// StrayFiles lists files in the store that no manifest entry
	// references — orphaned packs from crashed or rolled-back commits and
	// stale atomic-write temps. They are not corruption (the store serves
	// correctly with them present); GC reclaims them, Repair quarantines
	// them.
	StrayFiles []string `json:"strayFiles,omitempty"`
}

// Clean reports whether every version verified.
func (r *VerifyReport) Clean() bool { return len(r.Issues) == 0 }

// Verify is the store's fsck: it re-reads every version's pack chain from
// storage (bypassing all caches), reconstructs the canonical blob, checks
// it hashes back to the content id, re-parses it, and cross-checks the
// row/column counts the manifest declares. Every problem is collected per
// version rather than aborting at the first, so one torn pack does not
// hide a second. Safe to run on a live store: it takes only shared locks.
func (s *Store) Verify() (*VerifyReport, error) {
	if err := s.guard(); err != nil {
		return nil, err
	}
	rep := &VerifyReport{}
	ids := s.orderSnapshot()
	rep.Versions = len(ids)
	for _, id := range ids {
		if problem := s.verifyVersion(id); problem != "" {
			rep.Issues = append(rep.Issues, VerifyIssue{Version: id, Problem: problem})
			continue
		}
		rep.Verified++
	}
	strays, err := s.strayFiles()
	if err != nil {
		return nil, err
	}
	rep.StrayFiles = strays
	return rep, nil
}

// verifyVersion checks one version end to end and describes the first
// failure ("" = clean). It deliberately bypasses the blob/table caches:
// verification is about what is durably on disk, not what is resident.
func (s *Store) verifyVersion(id string) string {
	var (
		v     *Version
		ok    bool
		chain []packLink
		err   error
	)
	func() {
		s.mu.RLock()
		defer s.mu.RUnlock()
		if v, ok = s.versions[id]; ok {
			chain, err = s.chainLocked(id)
		}
	}()
	if !ok {
		return "version vanished from manifest mid-verify"
	}
	if err != nil {
		return err.Error()
	}
	blob, err := s.reconstruct(chain, nil)
	if err != nil {
		return err.Error()
	}
	if got := contentID(blob, v.Key); got != id {
		return fmt.Sprintf("reconstructed blob hashes to %s", got)
	}
	t, err := csvio.Read(bytes.NewReader(blob), csvio.Options{Key: v.Key})
	if err != nil {
		return fmt.Sprintf("blob does not parse: %v", err)
	}
	if t.NumRows() != v.Rows || t.NumCols() != v.Cols {
		return fmt.Sprintf("data is %dx%d, manifest declares %dx%d",
			t.NumRows(), t.NumCols(), v.Rows, v.Cols)
	}
	return ""
}

// orderSnapshot copies the commit order under the shared lock, so slow
// per-version walks (Verify, Repair) can iterate without holding it.
func (s *Store) orderSnapshot() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.order...)
}

// strayFiles lists unreferenced pack files and stale temp files (relative
// to the store directory). Memory-only stores have none.
func (s *Store) strayFiles() ([]string, error) {
	if s.dir == "" {
		return nil, nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var strays []string
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".tmp") {
			strays = append(strays, e.Name())
		}
	}
	packs, err := s.fs.ReadDir(s.packDir())
	if err != nil {
		return nil, err
	}
	for _, e := range packs {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(name, ".tmp") {
			strays = append(strays, filepath.Join("packs", name))
			continue
		}
		if strings.HasSuffix(name, ".pack") {
			if _, ok := s.packs[strings.TrimSuffix(name, ".pack")]; !ok {
				strays = append(strays, filepath.Join("packs", name))
			}
		}
	}
	sort.Strings(strays)
	return strays, nil
}

// RepairReport summarizes what Repair changed.
type RepairReport struct {
	// Quarantined lists the files moved into the quarantine directory
	// (paths relative to the store directory).
	Quarantined []string `json:"quarantined,omitempty"`
	// Dropped lists the version ids removed from the manifest: the
	// corrupt versions themselves plus every version whose lineage or
	// delta chain depended on one.
	Dropped []string `json:"dropped,omitempty"`
	// QuarantineDir is where the quarantined files went ("" when nothing
	// was quarantined).
	QuarantineDir string `json:"quarantineDir,omitempty"`
}

// quarantineDirName is where Repair moves damaged and unreferenced files,
// preserving the evidence instead of deleting it.
const quarantineDirName = "quarantine"

// Repair restores a damaged store to a self-consistent state: every
// version that fails verification — and, transitively, every version
// whose parent lineage or delta chain runs through one — is dropped from
// the manifest, and its pack file (plus any stray unreferenced packs and
// stale temps) is moved into a quarantine/ directory rather than deleted,
// so nothing is destroyed that a human might still want to salvage. The
// rewritten manifest is published with the same atomic-write discipline
// as a commit, and all caches are purged. Healthy stores are a no-op.
func (s *Store) Repair() (*RepairReport, error) {
	if err := s.guard(); err != nil {
		return nil, err
	}
	rep := &RepairReport{}
	// Find the damaged versions first (shared locks only, slow part).
	ids := s.orderSnapshot()
	bad := map[string]bool{}
	for _, id := range ids {
		if problem := s.verifyVersion(id); problem != "" {
			bad[id] = true
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// Close the damage transitively: a version whose parent is dropped
	// has no lineage, and one whose pack base is dropped cannot
	// reconstruct. Iterate to a fixed point (chains can be long).
	for changed := true; changed; {
		changed = false
		for _, id := range s.order {
			if bad[id] {
				continue
			}
			v := s.versions[id]
			pi := s.packs[id]
			if (v.Parent != "" && (bad[v.Parent] || s.versions[v.Parent] == nil)) ||
				(pi != nil && pi.Base != "" && bad[pi.Base]) {
				bad[id] = true
				changed = true
			}
		}
	}
	if len(bad) == 0 {
		// Nothing corrupt; still sweep strays into quarantine so a
		// "repair" leaves the directory exactly manifest-shaped.
		return rep, s.quarantineStraysLocked(rep)
	}

	// Rebuild the surviving manifest state.
	var order []string
	for _, id := range s.order {
		if bad[id] {
			rep.Dropped = append(rep.Dropped, id)
			continue
		}
		order = append(order, id)
	}
	versions := make(map[string]*Version, len(order))
	packs := make(map[string]*packInfo, len(order))
	for _, id := range order {
		versions[id] = s.versions[id]
		packs[id] = s.packs[id]
	}
	oldVersions, oldPacks, oldOrder := s.versions, s.packs, s.order
	s.versions, s.packs, s.order = versions, packs, order

	// Quarantine the dropped versions' packs, then publish the repaired
	// manifest. Order matters for crash safety the same way commits
	// stage-then-publish: a crash mid-quarantine reopens with the OLD
	// manifest still referencing a now-missing pack — which Verify
	// reports and a re-run of Repair finishes — never a manifest that
	// references quarantined data as live.
	if s.dir != "" {
		for _, id := range rep.Dropped {
			if err := s.quarantineLocked(filepath.Join("packs", id+".pack"), rep); err != nil {
				s.versions, s.packs, s.order = oldVersions, oldPacks, oldOrder
				return nil, err
			}
		}
		if err := s.writeManifest(); err != nil {
			s.versions, s.packs, s.order = oldVersions, oldPacks, oldOrder
			return nil, err
		}
	} else {
		for _, id := range rep.Dropped {
			delete(s.mem, id)
		}
	}
	if err := s.quarantineStraysLocked(rep); err != nil {
		return nil, err
	}
	// Every cache may hold data derived from dropped versions (diff
	// answers are keyed by pairs, change sets by chains) — purge them all
	// rather than reason about reachability.
	s.tables.purge()
	s.blobs.purge()
	s.changes.purge()
	s.results.purge()
	sort.Strings(rep.Dropped)
	return rep, nil
}

// quarantineStraysLocked moves unreferenced packs and stale temps into
// quarantine. Caller holds the write lock.
func (s *Store) quarantineStraysLocked(rep *RepairReport) error {
	if s.dir == "" {
		return nil
	}
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".tmp") {
			if err := s.quarantineLocked(e.Name(), rep); err != nil {
				return err
			}
		}
	}
	packs, err := s.fs.ReadDir(s.packDir())
	if err != nil {
		return err
	}
	for _, e := range packs {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		stray := strings.HasSuffix(name, ".tmp")
		if !stray && strings.HasSuffix(name, ".pack") {
			_, ok := s.packs[strings.TrimSuffix(name, ".pack")]
			stray = !ok
		}
		if stray {
			if err := s.quarantineLocked(filepath.Join("packs", name), rep); err != nil {
				return err
			}
		}
	}
	return nil
}

// quarantineLocked moves one store-relative file into quarantine/ (flat,
// name-collision-safe via the relative path with separators flattened).
// A file that is already gone is fine — quarantine is idempotent. Caller
// holds the write lock.
func (s *Store) quarantineLocked(rel string, rep *RepairReport) error {
	src := filepath.Join(s.dir, rel)
	if _, err := s.fs.Stat(src); err != nil {
		return nil // already gone (e.g. pack lost in the crash being repaired)
	}
	qdir := filepath.Join(s.dir, quarantineDirName)
	if err := s.fs.MkdirAll(qdir); err != nil {
		return err
	}
	dst := filepath.Join(qdir, strings.ReplaceAll(rel, string(filepath.Separator), "__"))
	if err := s.fs.Rename(src, dst); err != nil {
		return err
	}
	if err := s.fs.SyncDir(filepath.Dir(src)); err != nil {
		return err
	}
	if err := s.fs.SyncDir(qdir); err != nil {
		return err
	}
	rep.Quarantined = append(rep.Quarantined, rel)
	rep.QuarantineDir = qdir
	return nil
}
