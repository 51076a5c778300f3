package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"roadsocial/client"
)

// canonMembers renders a membership list order-independently.
func canonMembers(ms []int32) string {
	ids := make([]int, 0, len(ms))
	for _, m := range ms {
		ids = append(ids, int(m))
	}
	sort.Ints(ids)
	return fmt.Sprint(ids)
}

// TestStaleAdmissionRaceNotCached: a search that resolves its dataset entry,
// then stalls (e.g. in the admission queue) across a mutation's invalidate
// pass, builds its prepared state against the pre-mutation network. The
// search itself may answer from that pinned world — but its build must NOT
// land in the prepared cache, where the key (dataset, gen, ...) does not
// include the version and later searches at the new version would be served
// pre-mutation results. The interleaving is reproduced deterministically by
// snapshotting epoch+entry through resolve, as every read does, and running
// doAdmitted after the mutation.
func TestStaleAdmissionRaceNotCached(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	s := New(Config{})
	if err := s.AddDataset("test", net); err != nil {
		t.Fatal(err)
	}
	req := &SearchRequest{Dataset: "test", Q: q, K: k, T: tt, KTCoreOnly: true}

	// Baseline community; pick an intra-community edge whose deletion the
	// cache must not be allowed to forget.
	base, _, err := s.Do(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	members := map[int32]bool{}
	for _, m := range base.KTCore {
		members[m] = true
	}
	var mu, mv int32 = -1, -1
	for v := range members {
		for _, w := range net.Social.Neighbors(int(v)) {
			if members[w] {
				mu, mv = v, w
				break
			}
		}
		if mu >= 0 {
			break
		}
	}
	if mu < 0 {
		t.Fatal("no intra-community edge to delete")
	}

	// The stalled search begins: resolve snapshots epoch BEFORE entry.
	ds, epoch, err := s.resolve(req)
	if err != nil {
		t.Fatal(err)
	}

	// The mutation lands while the search is stalled. Its invalidate pass
	// drops the warmed entry and bumps the dataset's invalidation epoch.
	if _, err := s.Mutate("test", &client.MutateRequest{Deletes: [][2]int32{{mu, mv}}}, ""); err != nil {
		t.Fatal(err)
	}

	// The stalled search now runs with its pre-mutation snapshot. Its own
	// answer is the pinned world — version 0, baseline membership.
	stale, err := s.doAdmitted(req, ds, epoch, nil, &Timing{})
	if err != nil {
		t.Fatal(err)
	}
	if stale.Version != 0 {
		t.Fatalf("stalled search version = %d, want 0 (pinned pre-mutation)", stale.Version)
	}
	if got, want := canonMembers(stale.KTCore), canonMembers(base.KTCore); got != want {
		t.Fatalf("stalled search members %s, want pinned baseline %s", got, want)
	}

	// The poisoned build must not have been cached: the next search at the
	// new version is a miss, rebuilt against the post-mutation network.
	resp, _, err := s.Do(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cache != CacheMiss {
		t.Fatalf("post-mutation search cache = %v, want miss — the stale build was served from cache", resp.Cache)
	}
	if resp.Version != 1 {
		t.Fatalf("post-mutation search version = %d, want 1", resp.Version)
	}
	// And its answer matches an independent server that applied the same
	// mutation (the ground truth for the post-mutation world).
	s2 := New(Config{})
	if err := s2.AddDataset("truth", net); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Mutate("truth", &client.MutateRequest{Deletes: [][2]int32{{mu, mv}}}, ""); err != nil {
		t.Fatal(err)
	}
	truth, _, err := s2.Do(&SearchRequest{Dataset: "truth", Q: q, K: k, T: tt, KTCoreOnly: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonMembers(resp.KTCore), canonMembers(truth.KTCore); got != want {
		t.Fatalf("post-mutation members %s, want ground truth %s", got, want)
	}
}

// TestDuplicateCreatePreservesLiveJournal: a create against an already
// registered name must fail BEFORE touching the journal. The old path opened
// and compacted the journal first, renaming a fresh inode over the live
// dataset's open handle — later appends then went to an unlinked file and
// silently vanished at the next restart.
func TestDuplicateCreatePreservesLiveJournal(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	dir := t.TempDir()
	s1 := New(Config{MutationLogDir: dir})
	if err := s1.AddDataset("test", net); err != nil {
		t.Fatal(err)
	}
	u, v := freshEdge(t, s1, "test")
	if _, err := s1.Mutate("test", &client.MutateRequest{Inserts: [][2]int32{{u, v}}}, ""); err != nil {
		t.Fatal(err)
	}
	// The doomed duplicate.
	if err := s1.AddDataset("test", net); !errors.Is(err, ErrDatasetExists) {
		t.Fatalf("duplicate create: err = %v, want ErrDatasetExists", err)
	}
	// A mutation after the failed duplicate must still reach durable storage.
	if _, err := s1.Mutate("test", &client.MutateRequest{Deletes: [][2]int32{{u, v}}}, ""); err != nil {
		t.Fatal(err)
	}

	// Restart over the same log dir: both mutations replay.
	s2 := New(Config{MutationLogDir: dir})
	if err := s2.AddDataset("test", net); err != nil {
		t.Fatal(err)
	}
	resp, _, err := s2.Do(&SearchRequest{Dataset: "test", Q: q, K: k, T: tt, KTCoreOnly: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Version != 2 {
		t.Fatalf("replayed version = %d, want 2 (mutation after failed duplicate create was lost)", resp.Version)
	}
}

// TestRemoveRecreateJournalRace hammers RemoveDataset racing a re-create of
// the same name over one mutation-log dir. Whatever the interleaving, the
// surviving registration's journal must be the one its mutations append to:
// a mutation applied after the dust settles always survives a restart. (The
// unserialized path could delete the re-created journal by path — appends
// then went to an unlinked inode and the restart replayed nothing.)
func TestRemoveRecreateJournalRace(t *testing.T) {
	net, _, _, _ := testNetwork(t)
	dir := t.TempDir()
	for i := 0; i < 10; i++ {
		s := New(Config{MutationLogDir: dir})
		if err := s.AddDataset("x", net); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := s.RemoveDataset("x"); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			for try := 0; try < 1000; try++ {
				err := s.AddDataset("x", net)
				if err == nil {
					return
				}
				if !errors.Is(err, ErrDatasetExists) {
					t.Error(err)
					return
				}
			}
			// The remove won every retry window; the reconcile below
			// re-creates deterministically.
		}()
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		if !s.holdsDataset("x") {
			if err := s.AddDataset("x", net); err != nil {
				t.Fatal(err)
			}
		}
		u, v := freshEdge(t, s, "x")
		if _, err := s.Mutate("x", &client.MutateRequest{Inserts: [][2]int32{{u, v}}}, ""); err != nil {
			t.Fatal(err)
		}
		r := New(Config{MutationLogDir: dir})
		if err := r.AddDataset("x", net); err != nil {
			t.Fatal(err)
		}
		e, err := r.network("x")
		if err != nil {
			t.Fatal(err)
		}
		if e.version != 1 {
			t.Fatalf("iteration %d: restarted version = %d, want 1 (post-race mutation lost)", i, e.version)
		}
		// Drop the journal so the next iteration starts clean.
		if err := r.RemoveDataset("x"); err != nil {
			t.Fatal(err)
		}
	}
}
