package store

import (
	"testing"
	"time"

	"charles/internal/gen"
	"charles/internal/table"
)

// fuzzChain builds a deterministic snapshot chain for commit traffic.
func fuzzChain(t *testing.T, steps, seed int) []*table.Table {
	t.Helper()
	snaps, err := gen.MutateChain(gen.FuzzConfig{N: 12, Steps: steps, Seed: int64(seed)})
	if err != nil {
		t.Fatal(err)
	}
	return snaps
}

func recvNote(t *testing.T, sub *Subscription) (CommitNote, bool) {
	t.Helper()
	select {
	case note, ok := <-sub.C():
		return note, ok
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for commit note")
		return CommitNote{}, false
	}
}

func TestSubscribeDeliversCommitsInOrder(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	sub := s.Subscribe(8)
	defer sub.Close()
	ids := commitChain(t, s, fuzzChain(t, 4, 1))
	for i, want := range ids {
		note, ok := recvNote(t, sub)
		if !ok {
			t.Fatalf("channel closed after %d notes", i)
		}
		if note.Version.ID != want {
			t.Fatalf("note %d = %s, want %s", i, note.Version.ID, want)
		}
		if note.Version.Seq != i+1 {
			t.Fatalf("note %d seq = %d, want %d", i, note.Version.Seq, i+1)
		}
	}
	if sub.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", sub.Dropped())
	}
}

func TestSubscribeDedupCommitsDoNotNotify(t *testing.T) {
	s, _ := Open("")
	src, _ := gen.Toy()
	sub := s.Subscribe(8)
	defer sub.Close()
	v1, err := s.Commit(src, "", "first")
	if err != nil {
		t.Fatal(err)
	}
	// Content-addressed dedup: the second commit returns the existing
	// version and must not produce a second note.
	if _, err := s.Commit(src.Clone(), "", "dup"); err != nil {
		t.Fatal(err)
	}
	note, _ := recvNote(t, sub)
	if note.Version.ID != v1.ID {
		t.Fatalf("note = %s, want %s", note.Version.ID, v1.ID)
	}
	select {
	case extra := <-sub.C():
		t.Fatalf("dedup commit produced a note: %+v", extra)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestSubscribeCoalescesSlowSubscriber(t *testing.T) {
	s, _ := Open("")
	sub := s.Subscribe(2)
	defer sub.Close()
	ids := commitChain(t, s, fuzzChain(t, 6, 2))
	// Nobody drained while 6 commits landed into a 2-slot buffer: the
	// oldest notes were coalesced away, the newest survive, and the
	// committer never blocked (we got here).
	if got, want := sub.Dropped(), int64(len(ids)-2); got != want {
		t.Fatalf("dropped = %d, want %d", got, want)
	}
	var last string
	for {
		select {
		case note := <-sub.C():
			last = note.Version.ID
			continue
		default:
		}
		break
	}
	if last != ids[len(ids)-1] {
		t.Fatalf("newest buffered note = %s, want head %s", last, ids[len(ids)-1])
	}
}

func TestStoreCloseClosesSubscriptions(t *testing.T) {
	s, _ := Open("")
	sub := s.Subscribe(4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-sub.C(); ok {
		t.Fatal("channel still open after Store.Close")
	}
	sub.Close() // idempotent after store close
	// Subscribing to a closed store yields an already-closed channel.
	late := s.Subscribe(4)
	if _, ok := <-late.C(); ok {
		t.Fatal("subscription on closed store delivered a note")
	}
}

func TestHubSubscribeFanIn(t *testing.T) {
	h, err := OpenHub("")
	if err != nil {
		t.Fatal(err)
	}
	sub := h.Subscribe(8)
	snaps := fuzzChain(t, 2, 3)
	va, err := h.Commit("acme", "sales", snaps[0], "", "a")
	if err != nil {
		t.Fatal(err)
	}
	vb, err := h.Commit("acme", "hr", snaps[1], "", "b")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for i := 0; i < 2; i++ {
		select {
		case note, ok := <-sub.C():
			if !ok {
				t.Fatal("hub feed closed early")
			}
			got[note.Tenant+"/"+note.Dataset] = note.Version.ID
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for hub note")
		}
	}
	if got["acme/sales"] != va.ID || got["acme/hr"] != vb.ID {
		t.Fatalf("hub notes = %v, want sales=%s hr=%s", got, va.ID, vb.ID)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-sub.C():
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("hub feed still open after Hub.Close")
		}
	}
}

// TestHubOfFeed pins the commit feed of a hub of one: a commit made
// directly on the wrapped store arrives under the hub's one tenant and
// dataset, and the feed closes once the store is closed.
func TestHubOfFeed(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	h := HubOf(s, "default", "default")
	sub := h.Subscribe(4)
	v, err := s.Commit(fuzzChain(t, 1, 4)[0], "", "direct")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case note, ok := <-sub.C():
		if !ok {
			t.Fatal("hub feed closed before the commit note")
		}
		if note.Tenant != "default" || note.Dataset != "default" || note.Version.ID != v.ID {
			t.Fatalf("note = %s/%s %s, want default/default %s", note.Tenant, note.Dataset, note.Version.ID, v.ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for the hub note")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case note, ok := <-sub.C():
		if ok {
			t.Fatalf("note %+v after Store.Close, want a closed feed", note)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hub feed still open after Store.Close")
	}
}
