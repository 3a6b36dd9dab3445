package store

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"charles/internal/gen"
)

func TestHubAcquireCommitPersist(t *testing.T) {
	dir := t.TempDir()
	h, err := OpenHub(dir)
	if err != nil {
		t.Fatal(err)
	}
	src, tgt := gen.Toy()
	v1, err := h.Commit("acme", "payroll", src, "", "2016")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Commit("acme", "payroll", tgt, v1.ID, "2017"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Commit("globex", "payroll", src, "", "2016"); err != nil {
		t.Fatal(err)
	}

	// Same dataset name under a different tenant is a different shard.
	st, release, err := h.AcquireExisting("acme", "payroll")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(st.Log()); got != 2 {
		t.Errorf("acme/payroll has %d versions, want 2", got)
	}
	release()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	// Shards persist under <root>/<tenant>/<dataset> and reopen cleanly.
	h2, err := OpenHub(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	st, release, err = h2.AcquireExisting("globex", "payroll")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	back, err := st.Checkout(st.Log()[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != src.NumRows() {
		t.Errorf("reopened checkout rows = %d, want %d", back.NumRows(), src.NumRows())
	}
	refs, err := h2.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 || refs[0] != (DatasetRef{"acme", "payroll"}) || refs[1] != (DatasetRef{"globex", "payroll"}) {
		t.Errorf("datasets = %+v", refs)
	}
}

func TestHubNameValidation(t *testing.T) {
	h, err := OpenHub("")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for _, bad := range []string{"", "..", ".hidden", "a/b", "a\\b", "a b", "über", "x\x00y"} {
		if _, _, err := h.Acquire(bad, "ds"); !errors.Is(err, ErrInvalidName) {
			t.Errorf("tenant %q: err = %v, want ErrInvalidName", bad, err)
		}
		if _, _, err := h.Acquire("t", bad); !errors.Is(err, ErrInvalidName) {
			t.Errorf("dataset %q: err = %v, want ErrInvalidName", bad, err)
		}
	}
	for _, good := range []string{"a", "Tenant-1", "data.set_2"} {
		_, release, err := h.Acquire(good, good)
		if err != nil {
			t.Errorf("name %q rejected: %v", good, err)
			continue
		}
		release()
	}
}

func TestHubAcquireExistingUnknown(t *testing.T) {
	h, err := OpenHub(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, _, err := h.AcquireExisting("no", "such"); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("err = %v, want ErrUnknownDataset", err)
	}
	// A failed read-side acquire must not have created the dataset...
	refs, err := h.Datasets()
	if err != nil || len(refs) != 0 {
		t.Fatalf("datasets after failed acquire = %v, %v", refs, err)
	}
	// ...and a later create-side acquire of the same name succeeds.
	src, _ := gen.Toy()
	if _, err := h.Commit("no", "such", src, "", "now it exists"); err != nil {
		t.Fatal(err)
	}
	st, release, err := h.AcquireExisting("no", "such")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if len(st.Log()) != 1 {
		t.Errorf("log = %d entries, want 1", len(st.Log()))
	}
}

func TestHubIdleEvictionClosesShards(t *testing.T) {
	h, err := OpenHubWith(t.TempDir(), HubOptions{MaxOpen: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	src, _ := gen.Toy()
	var stores []*Store
	for i := 0; i < 3; i++ {
		st, release, err := h.Acquire("t", fmt.Sprintf("ds%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Commit(src, "", "seed"); err != nil {
			t.Fatal(err)
		}
		stores = append(stores, st)
		release()
	}
	// Opening the third shard evicted the least-recently-used first one,
	// and eviction actually closed it — a retained handle fails loudly.
	if _, err := stores[0].Head(); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("evicted shard Head err = %v, want ErrStoreClosed", err)
	}
	if _, err := stores[2].Head(); err != nil {
		t.Errorf("most recent shard closed early: %v", err)
	}
	if got := h.Stats().OpenShards; got != 2 {
		t.Errorf("open shards = %d, want 2", got)
	}
	// Re-acquiring the evicted dataset reopens it from disk.
	st, release, err := h.AcquireExisting("t", "ds0")
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if len(st.Log()) != 1 {
		t.Errorf("reopened shard log = %d, want 1", len(st.Log()))
	}
}

func TestHubPinnedShardsSurviveEviction(t *testing.T) {
	h, err := OpenHubWith("", HubOptions{MaxOpen: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	stA, releaseA, err := h.Acquire("t", "a")
	if err != nil {
		t.Fatal(err)
	}
	// Acquiring a second shard exceeds MaxOpen, but the pinned shard must
	// not be evicted out from under its holder (soft cap).
	_, releaseB, err := h.Acquire("t", "b")
	if err != nil {
		t.Fatal(err)
	}
	src, _ := gen.Toy()
	if _, err := stA.Commit(src, "", "while pinned"); err != nil {
		t.Errorf("pinned shard was closed: %v", err)
	}
	releaseB()
	releaseA()
	// Both released: the sweep on release trims back under the cap.
	if got := h.Stats().OpenShards; got != 1 {
		t.Errorf("open shards after release = %d, want 1", got)
	}
}

func TestHubSharedBudgetBoundsShards(t *testing.T) {
	const budget = 256 << 10 // deliberately small so eviction must happen
	h, err := OpenHubWith("", HubOptions{MaxOpen: 16, MemoryBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	chain, err := gen.Chain(gen.ChainConfig{N: 60, Steps: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Fill 16 shards' caches: commit a chain into each and walk it back so
	// the table/blob caches populate.
	for i := 0; i < 16; i++ {
		ds := fmt.Sprintf("ds%02d", i)
		parent := ""
		for j, snap := range chain {
			v, err := h.Commit("t", ds, snap, parent, fmt.Sprintf("step %d", j))
			if err != nil {
				t.Fatal(err)
			}
			parent = v.ID
		}
		st, release, err := h.AcquireExisting("t", ds)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range st.Log() {
			if _, err := st.Checkout(v.ID); err != nil {
				t.Fatal(err)
			}
		}
		release()
		if used := h.Budget().Used(); used > budget {
			t.Fatalf("after shard %d: budget used %d > cap %d", i, used, budget)
		}
	}
	bs := h.Budget().Stats()
	if bs.UsedBytes > budget {
		t.Errorf("final budget used %d > cap %d", bs.UsedBytes, budget)
	}
	if bs.Evictions == 0 {
		t.Error("16 shards under a small budget evicted nothing — budget not shared")
	}
	if got := h.Stats().OpenShards; got != 16 {
		t.Errorf("open shards = %d, want 16", got)
	}
}

// TestHubCrossShardCommitNonBlocking deterministically pins the no-shared-
// lock property: shard A's commit is held mid-flight (via the off-lock
// encode hook), and commits to shard B must complete while A is stuck. If
// any hub-level lock were held across a shard commit, B would deadlock.
func TestHubCrossShardCommitNonBlocking(t *testing.T) {
	h, err := OpenHub("")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	src, tgt := gen.Toy()

	stA, releaseA, err := h.Acquire("t", "a")
	if err != nil {
		t.Fatal(err)
	}
	defer releaseA()
	hold := make(chan struct{})
	held := make(chan struct{})
	stA.testCommitHook = func() {
		close(held)
		<-hold
	}

	aDone := make(chan error, 1)
	go func() {
		_, err := h.Commit("t", "a", src, "", "blocked commit")
		aDone <- err
	}()
	<-held // shard A is now mid-commit and will not finish until released

	bDone := make(chan error, 1)
	go func() {
		v, err := h.Commit("t", "b", src, "", "first")
		if err == nil {
			_, err = h.Commit("t", "b", tgt, v.ID, "second")
		}
		bDone <- err
	}()
	select {
	case err := <-bDone:
		if err != nil {
			t.Fatalf("shard B commit failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shard B commits blocked behind shard A's in-flight commit")
	}
	if got := shardCommits(h, "t", "b"); got != 2 {
		t.Errorf("shard B commit counter = %d, want 2", got)
	}
	if got := shardCommits(h, "t", "a"); got != 0 {
		t.Errorf("shard A commit counter = %d before release, want 0", got)
	}

	close(hold)
	if err := <-aDone; err != nil {
		t.Fatalf("shard A commit failed after release: %v", err)
	}
	if got := shardCommits(h, "t", "a"); got != 1 {
		t.Errorf("shard A commit counter = %d, want 1", got)
	}
}

// shardCommits reads one shard's commit counter out of HubStats.
func shardCommits(h *Hub, tenant, dataset string) int64 {
	for _, s := range h.Stats().Shards {
		if s.Tenant == tenant && s.Dataset == dataset {
			return s.Commits
		}
	}
	return -1
}

// TestHubHammer runs the multi-shard concurrency pin under -race: 8 shards
// take concurrent commit traffic while readers walk timelines on 8 other
// shards, with one additional shard's commit held hostage the whole time.
// Per-shard op counters prove every shard made full progress despite the
// stuck shard — zero cross-shard blocking — and the shared budget stays
// under its cap with all 17 shards open.
func TestHubHammer(t *testing.T) {
	const (
		writers     = 8
		readers     = 8
		commitsEach = 6
		budget      = 4 << 20
	)
	h, err := OpenHubWith("", HubOptions{MaxOpen: writers + readers + 1, MemoryBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	chain, err := gen.Chain(gen.ChainConfig{N: 40, Steps: commitsEach})
	if err != nil {
		t.Fatal(err)
	}

	// Pre-seed the reader shards with full chains.
	for r := 0; r < readers; r++ {
		ds := fmt.Sprintf("read%d", r)
		parent := ""
		for j, snap := range chain {
			v, err := h.Commit("t", ds, snap, parent, fmt.Sprintf("seed %d", j))
			if err != nil {
				t.Fatal(err)
			}
			parent = v.ID
		}
	}

	// Hold one shard's commit mid-flight for the entire hammer.
	stuckSt, stuckRelease, err := h.Acquire("t", "stuck")
	if err != nil {
		t.Fatal(err)
	}
	defer stuckRelease()
	hold := make(chan struct{})
	held := make(chan struct{})
	stuckSt.testCommitHook = func() {
		close(held)
		<-hold
	}
	stuckDone := make(chan error, 1)
	go func() {
		_, err := h.Commit("t", "stuck", chain[0], "", "hostage")
		stuckDone <- err
	}()
	<-held

	var (
		wg       sync.WaitGroup
		writeOps [writers]atomic.Int64
		readOps  [readers]atomic.Int64
		failed   atomic.Bool
	)
	fail := func(format string, args ...any) {
		failed.Store(true)
		t.Errorf(format, args...)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ds := fmt.Sprintf("write%d", w)
			parent := ""
			for j := 0; j <= commitsEach; j++ {
				v, err := h.Commit("t", ds, chain[j], parent, fmt.Sprintf("commit %d", j))
				if err != nil {
					fail("writer %d commit %d: %v", w, j, err)
					return
				}
				parent = v.ID
				writeOps[w].Add(1)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ds := fmt.Sprintf("read%d", r)
			for pass := 0; pass < 3; pass++ {
				st, release, err := h.AcquireExisting("t", ds)
				if err != nil {
					fail("reader %d acquire: %v", r, err)
					return
				}
				log := st.Log()
				for _, v := range log {
					if _, err := st.Checkout(v.ID); err != nil {
						fail("reader %d checkout: %v", r, err)
						release()
						return
					}
					readOps[r].Add(1)
				}
				if _, _, err := st.DiffResult(log[0].ID, log[len(log)-1].ID, 0); err != nil {
					fail("reader %d diff: %v", r, err)
					release()
					return
				}
				readOps[r].Add(1)
				release()
			}
		}(r)
	}
	wg.Wait()
	if failed.Load() {
		return
	}

	// Every shard made full progress while "stuck" was mid-commit.
	for w := 0; w < writers; w++ {
		if got := writeOps[w].Load(); got != commitsEach+1 {
			t.Errorf("writer shard %d completed %d/%d commits", w, got, commitsEach+1)
		}
		if got := shardCommits(h, "t", fmt.Sprintf("write%d", w)); got != commitsEach+1 {
			t.Errorf("writer shard %d hub counter = %d, want %d", w, got, commitsEach+1)
		}
	}
	for r := 0; r < readers; r++ {
		want := int64(3 * (len(chain) + 1))
		if got := readOps[r].Load(); got != want {
			t.Errorf("reader shard %d completed %d/%d ops", r, got, want)
		}
	}
	if got := shardCommits(h, "t", "stuck"); got != 0 {
		t.Errorf("stuck shard counter = %d, want 0 while held", got)
	}
	if used := h.Budget().Used(); used > budget {
		t.Errorf("budget used %d > cap %d with %d shards open", used, budget, h.Stats().OpenShards)
	}

	close(hold)
	if err := <-stuckDone; err != nil {
		t.Fatalf("stuck shard commit failed after release: %v", err)
	}
}

func TestHubVerifyRepairGCAll(t *testing.T) {
	h, err := OpenHub(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	src, tgt := gen.Toy()
	for _, ref := range []DatasetRef{{"acme", "payroll"}, {"acme", "sales"}, {"globex", "payroll"}} {
		v, err := h.Commit(ref.Tenant, ref.Dataset, src, "", "a")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Commit(ref.Tenant, ref.Dataset, tgt, v.ID, "b"); err != nil {
			t.Fatal(err)
		}
	}
	vreps, err := h.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(vreps) != 3 {
		t.Fatalf("VerifyAll covered %d shards, want 3", len(vreps))
	}
	for key, rep := range vreps {
		if !rep.Clean() {
			t.Errorf("shard %s not clean: %+v", key, rep)
		}
		if rep.Versions != 2 {
			t.Errorf("shard %s checked %d versions, want 2", key, rep.Versions)
		}
	}
	greps, err := h.GCAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(greps) != 3 {
		t.Errorf("GCAll covered %d shards, want 3", len(greps))
	}
	rreps, err := h.RepairAll()
	if err != nil {
		t.Fatal(err)
	}
	for key, rep := range rreps {
		if len(rep.Quarantined) != 0 {
			t.Errorf("RepairAll quarantined %v in clean shard %s", rep.Quarantined, key)
		}
	}
}

func TestHubClose(t *testing.T) {
	h, err := OpenHub("")
	if err != nil {
		t.Fatal(err)
	}
	src, _ := gen.Toy()
	st, release, err := h.Acquire("t", "ds")
	if err != nil {
		t.Fatal(err)
	}
	release()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, _, err := h.Acquire("t", "ds"); !errors.Is(err, ErrHubClosed) {
		t.Errorf("Acquire after Close: %v, want ErrHubClosed", err)
	}
	if _, err := h.Datasets(); !errors.Is(err, ErrHubClosed) {
		t.Errorf("Datasets after Close: %v, want ErrHubClosed", err)
	}
	if _, err := st.Commit(src, "", "late"); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("Commit on closed hub's store: %v, want ErrStoreClosed", err)
	}
}

func TestStoreCloseRejectsOps(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	src, _ := gen.Toy()
	v, err := s.Commit(src, "", "before close")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := s.Commit(src, "", "after"); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("Commit: %v", err)
	}
	if _, err := s.Checkout(v.ID); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("Checkout: %v", err)
	}
	if _, ok := s.CheckoutCached(v.ID); ok {
		t.Error("CheckoutCached hit after Close — cache not purged")
	}
	if _, err := s.Get(v.ID); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("Get: %v", err)
	}
	if _, err := s.Blob(v.ID); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("Blob: %v", err)
	}
	if _, err := s.Head(); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("Head: %v", err)
	}
	if _, err := s.Lineage(v.ID); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("Lineage: %v", err)
	}
	if _, err := s.Changes(v.ID); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("Changes: %v", err)
	}
	if _, _, err := s.DiffResult(v.ID, v.ID, 0); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("DiffResult: %v", err)
	}
	if _, err := s.Verify(); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("Verify: %v", err)
	}
	if _, err := s.Repair(); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("Repair: %v", err)
	}
	if _, err := s.GC(); !errors.Is(err, ErrStoreClosed) {
		t.Errorf("GC: %v", err)
	}
}

// TestHubOfAdmitsOneName pins the namespace of a hub of one: its one
// dataset is acquired and committed to like any shard, and every other
// name — invalid ones included — is ErrUnknownDataset for reads and
// commits alike, with nothing created.
func TestHubOfAdmitsOneName(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := HubOf(s, "default", "default")
	snaps := fuzzChain(t, 2, 5)
	v, err := h.Commit("default", "default", snaps[0], "", "via hub")
	if err != nil {
		t.Fatal(err)
	}
	got, release, err := h.AcquireExisting("default", "default")
	if err != nil || got != s {
		t.Fatalf("AcquireExisting(default) = %p, %v; want the wrapped store", got, err)
	}
	release()
	if shardCommits(h, "default", "default") != 1 {
		t.Errorf("commit counter = %d, want 1", shardCommits(h, "default", "default"))
	}
	for _, name := range [][2]string{{"other", "ds"}, {"default", "other"}, {"..", "x"}} {
		if _, _, err := h.AcquireExisting(name[0], name[1]); !errors.Is(err, ErrUnknownDataset) {
			t.Errorf("AcquireExisting(%s/%s) err = %v, want ErrUnknownDataset", name[0], name[1], err)
		}
		if _, _, err := h.Acquire(name[0], name[1]); !errors.Is(err, ErrUnknownDataset) {
			t.Errorf("Acquire(%s/%s) err = %v, want ErrUnknownDataset", name[0], name[1], err)
		}
		if _, err := h.Commit(name[0], name[1], snaps[1], "", "elsewhere"); !errors.Is(err, ErrUnknownDataset) {
			t.Errorf("Commit(%s/%s) err = %v, want ErrUnknownDataset", name[0], name[1], err)
		}
	}
	refs, err := h.Datasets()
	if err != nil || len(refs) != 1 || refs[0] != (DatasetRef{Tenant: "default", Dataset: "default"}) {
		t.Fatalf("Datasets = %+v, %v; want only default/default", refs, err)
	}
	if hs := h.Stats(); hs.OpenShards != 1 || len(hs.Shards) != 1 || hs.Shards[0].Store.Versions != 1 {
		t.Errorf("hub stats = %+v, want the one shard with 1 version", hs)
	}
	if head, err := s.Head(); err != nil || head.ID != v.ID {
		t.Errorf("store head = %v, %v; want %s", head, err, v.ID)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == "other" || e.Name() == "default" {
			t.Errorf("hub of one created %s under the store dir", e.Name())
		}
	}
}
