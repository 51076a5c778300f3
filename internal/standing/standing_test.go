package standing

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"roadsocial/client"
	"roadsocial/internal/durable"
)

func spec(id string, k int) client.StandingQuery {
	return client.StandingQuery{ID: id, Algo: client.AlgoGlobal, Q: []int32{1, 2}, K: k, T: 900}
}

// TestSidecarFoldAndCompact: put/state/delete records fold to the live set,
// a torn tail is dropped, and reopening compacts to one put per live query
// with the last state folded in.
func TestSidecarFoldAndCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ds.squeries")
	sc, live, err := OpenSidecar(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 0 {
		t.Fatalf("fresh sidecar restored %d queries, want 0", len(live))
	}
	if err := sc.AppendPut(spec("sq-1", 4)); err != nil {
		t.Fatal(err)
	}
	if err := sc.AppendPut(spec("sq-2", 5)); err != nil {
		t.Fatal(err)
	}
	if err := sc.AppendState("sq-1", 3, []int32{7, 8, 9}, 1); err != nil {
		t.Fatal(err)
	}
	if err := sc.AppendState("sq-1", 4, []int32{7, 9}, 2); err != nil {
		t.Fatal(err)
	}
	if err := sc.AppendDelete("sq-2"); err != nil {
		t.Fatal(err)
	}
	sc.Close()

	// Torn tail: a partially written append must not poison the earlier
	// records.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := durable.AppendFrame(nil, []byte(`{"op":"put","query":{"id":"sq-3"}}`))
	if _, err := f.Write(torn[:len(torn)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	sc2, live, err := OpenSidecar(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sc2.Close()
	if len(live) != 1 || live[0].Query.ID != "sq-1" {
		t.Fatalf("restored %+v, want just sq-1", live)
	}
	if live[0].Query.Version != 4 || fmt.Sprint(live[0].Query.Members) != "[7 9]" {
		t.Fatalf("restored state version=%d members=%v, want 4/[7 9]", live[0].Query.Version, live[0].Query.Members)
	}
	if live[0].LastEventID != 2 {
		t.Fatalf("restored last event id = %d, want 2", live[0].LastEventID)
	}
	// Compacted: one put record for the lone live query, the torn tail gone.
	recs, err := durable.Read(path, sidecarMagic)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("compacted sidecar has %d records, want 1:\n%q", len(recs), recs)
	}
	// The event counter survives the compaction cycle too (restart →
	// compact → restart) and only ratchets up: a stale low-ID state record
	// cannot rewind it.
	if err := sc2.AppendState("sq-1", 5, []int32{7}, 1); err != nil {
		t.Fatal(err)
	}
	sc2.Close()
	sc3, live, err := OpenSidecar(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sc3.Close()
	if len(live) != 1 || live[0].LastEventID != 2 || live[0].Query.Version != 5 {
		t.Fatalf("re-restored %+v, want event id still 2 at version 5", live)
	}
}

// TestSidecarEmptyCommunityState: a state record for an empty membership is
// distinguishable from "never evaluated" on restore.
func TestSidecarEmptyCommunityState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ds.squeries")
	sc, _, err := OpenSidecar(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.AppendPut(spec("sq-1", 64)); err != nil {
		t.Fatal(err)
	}
	if err := sc.AppendState("sq-1", 2, nil, 0); err != nil {
		t.Fatal(err)
	}
	sc.Close()
	sc2, live, err := OpenSidecar(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sc2.Close()
	if len(live) != 1 || !live[0].Query.NoCommunity || live[0].Query.Version != 2 {
		t.Fatalf("restored %+v, want NoCommunity at version 2", live)
	}
}

// TestHubPublishResumeGap: IDs are monotone from 1, resume replays exactly
// the missed ring suffix, and a resume point older than the ring reports a
// gap.
func TestHubPublishResumeGap(t *testing.T) {
	var events, lagged atomic.Int64
	h := newHub(4, 8, &events, &lagged)
	for i := 1; i <= 3; i++ {
		if id := h.Publish(client.QueryEvent{Version: uint64(i)}); id != uint64(i) {
			t.Fatalf("publish %d got id %d", i, id)
		}
	}
	// Resume from 1: events 2 and 3 replay, no gap.
	sub, replay, gap := h.Subscribe(1, true)
	if gap || len(replay) != 2 || replay[0].ID != 2 || replay[1].ID != 3 {
		t.Fatalf("resume from 1: gap=%v replay=%+v", gap, replay)
	}
	// An event published after Subscribe lands on the channel — replay plus
	// stream has no gap and no duplicate.
	h.Publish(client.QueryEvent{Version: 4})
	if ev := <-sub.Events(); ev.ID != 4 {
		t.Fatalf("streamed event id %d, want 4", ev.ID)
	}
	sub.Cancel()

	// Overflow the ring (cap 4): events 1.. evicted, resume from 0 gaps.
	for i := 5; i <= 9; i++ {
		h.Publish(client.QueryEvent{Version: uint64(i)})
	}
	_, replay, gap = h.Subscribe(0, true)
	if !gap {
		t.Fatalf("resume from 0 after eviction: gap=false, replay=%+v", replay)
	}
	if len(replay) != 4 || replay[0].ID != 6 {
		t.Fatalf("replay after eviction %+v, want ids 6..9", replay)
	}
	// Resume at the head: nothing to replay, no gap.
	_, replay, gap = h.Subscribe(9, true)
	if gap || len(replay) != 0 {
		t.Fatalf("resume at head: gap=%v replay=%+v", gap, replay)
	}
	// Resume AHEAD of the head: the cursor belongs to another replica's (or
	// a dead process's) numbering — a gap, so the subscriber learns its
	// cursor is void instead of silently dropping this hub's next events.
	_, replay, gap = h.Subscribe(12, true)
	if !gap || len(replay) != 0 {
		t.Fatalf("resume ahead of head: gap=%v replay=%+v, want a gap with no replay", gap, replay)
	}
}

// TestHubSeededAcrossRestart: a hub seeded from the sidecar's persisted event
// ID continues the pre-restart numbering, and a subscriber resuming from a
// cursor inside the lost (pre-restart) range gets a gap, never a silent skip.
func TestHubSeededAcrossRestart(t *testing.T) {
	var events, lagged atomic.Int64
	h := newHub(4, 8, &events, &lagged)
	h.nextID = 7 // what OpenDataset does with a restored LastEventID
	if id := h.Publish(client.QueryEvent{Version: 1}); id != 8 {
		t.Fatalf("first post-seed id = %d, want 8", id)
	}
	// A subscriber that acked everything pre-restart resumes cleanly.
	_, replay, gap := h.Subscribe(8, true)
	if gap || len(replay) != 0 {
		t.Fatalf("resume at seeded head: gap=%v replay=%+v", gap, replay)
	}
	// One that stopped inside the lost pre-restart range gaps: events 4..7
	// died with the old process's ring.
	_, replay, gap = h.Subscribe(3, true)
	if !gap || len(replay) != 1 || replay[0].ID != 8 {
		t.Fatalf("resume into the lost range: gap=%v replay=%+v, want gap with only event 8", gap, replay)
	}
}

// TestHubLaggedAndTerminal: a subscriber whose buffer fills is dropped and
// marked lagged (publisher never blocks); a terminal event closes every
// channel and later subscribes see a pre-closed channel.
func TestHubLaggedAndTerminal(t *testing.T) {
	var events, lagged atomic.Int64
	h := newHub(16, 2, &events, &lagged)
	slow, _, _ := h.Subscribe(0, false)
	h.Publish(client.QueryEvent{Version: 1})
	h.Publish(client.QueryEvent{Version: 2})
	h.Publish(client.QueryEvent{Version: 3}) // buffer 2: this one overflows
	if !slow.Lagged() {
		t.Fatal("overflowed subscriber not marked lagged")
	}
	if _, open := <-slow.Events(); !open {
		t.Fatal("lagged channel should still drain its buffered events")
	}
	if lagged.Load() != 1 {
		t.Fatalf("lagged counter = %d, want 1", lagged.Load())
	}

	live, _, _ := h.Subscribe(0, false)
	h.Publish(client.QueryEvent{Terminal: true, Reason: "bye"})
	var last client.QueryEvent
	for ev := range live.Events() {
		last = ev
	}
	if !last.Terminal || last.Reason != "bye" {
		t.Fatalf("last event %+v, want terminal", last)
	}
	if id := h.Publish(client.QueryEvent{Version: 9}); id != 0 {
		t.Fatalf("publish after terminal minted id %d, want 0", id)
	}
	after, replay, _ := h.Subscribe(0, true)
	if _, open := <-after.Events(); open {
		t.Fatal("subscribe after terminal: channel not pre-closed")
	}
	if len(replay) == 0 || !replay[len(replay)-1].Terminal {
		t.Fatalf("replay after terminal %+v, want to end terminal", replay)
	}
}

// TestRegistryRegisterDeleteNotify: minted ids, duplicate pinned ids,
// coalescing notify semantics, and eval-pass draining with mid-pass marks.
func TestRegistryRegisterDeleteNotify(t *testing.T) {
	r := NewRegistry(Config{})
	if _, err := r.OpenDataset("ds"); err != nil {
		t.Fatal(err)
	}

	e1, err := r.Register("ds", spec("", 4))
	if err != nil {
		t.Fatal(err)
	}
	if e1.Spec().ID != "sq-1" {
		t.Fatalf("minted id %q, want sq-1", e1.Spec().ID)
	}
	if _, err := r.Register("ds", spec("sq-7", 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("ds", spec("sq-7", 5)); err == nil {
		t.Fatal("duplicate pinned id accepted")
	}
	// The pinned sq-7 bumped the sequence: the next mint skips past it.
	e3, err := r.Register("ds", spec("", 6))
	if err != nil {
		t.Fatal(err)
	}
	if e3.Spec().ID != "sq-8" {
		t.Fatalf("post-pin mint %q, want sq-8", e3.Spec().ID)
	}
	if r.Count() != 3 {
		t.Fatalf("count %d, want 3", r.Count())
	}

	// First notify starts a run; a second notify while "running" coalesces.
	matched, start := r.Notify("ds", func(e *Entry) bool { return e.Spec().K == 4 })
	if matched != 1 || !start {
		t.Fatalf("notify 1: matched=%d start=%v, want 1/true", matched, start)
	}
	matched, start = r.Notify("ds", func(e *Entry) bool { return true })
	if matched != 3 || start {
		t.Fatalf("notify 2: matched=%d start=%v, want 3/false (coalesced)", matched, start)
	}
	if r.Notified() != 2 {
		t.Fatalf("notified counter %d, want 2", r.Notified())
	}

	// The eval pass drains everything pending, including marks added mid-pass.
	evaled := map[string]int{}
	injected := false
	n := r.RunEvals("ds", func(q client.StandingQuery) ([]int32, uint64, error) {
		evaled[q.ID]++
		if !injected {
			injected = true
			r.Notify("ds", func(e *Entry) bool { return e.Spec().ID == "sq-8" })
		}
		return []int32{1, 2, 3}, 1, nil
	}, nil)
	if n < 3 || evaled["sq-1"] == 0 || evaled["sq-7"] == 0 || evaled["sq-8"] == 0 {
		t.Fatalf("evals=%d evaled=%v, want all three drained", n, evaled)
	}
	// Drained: the next notify starts a fresh run.
	if _, start = r.Notify("ds", func(*Entry) bool { return true }); !start {
		t.Fatal("notify after drained pass did not start a run")
	}
	r.AbandonRun("ds")
	if _, start = r.Notify("ds", func(*Entry) bool { return true }); !start {
		t.Fatal("notify after AbandonRun did not start a run")
	}
	// Leave no running flag behind for the delete below.
	r.RunEvals("ds", func(client.StandingQuery) ([]int32, uint64, error) { return nil, 1, nil }, nil)

	// Delete publishes a terminal event to subscribers.
	sub, _, _ := e1.Hub().Subscribe(0, false)
	if err := r.Delete("ds", "sq-1", "test delete"); err != nil {
		t.Fatal(err)
	}
	ev := <-sub.Events()
	if !ev.Terminal || ev.Reason != "test delete" {
		t.Fatalf("delete event %+v, want terminal", ev)
	}
	if err := r.Delete("ds", "sq-1", "again"); err == nil {
		t.Fatal("double delete succeeded")
	}
	if r.Count() != 2 {
		t.Fatalf("count after delete %d, want 2", r.Count())
	}
}

// TestRegistryEvalPublishesDeltas: RunEvals publishes only when membership
// moved (or the entry was restored), with correct joined/left sets.
func TestRegistryEvalPublishesDeltas(t *testing.T) {
	r := NewRegistry(Config{})
	if _, err := r.OpenDataset("ds"); err != nil {
		t.Fatal(err)
	}
	e, err := r.Register("ds", spec("", 4))
	if err != nil {
		t.Fatal(err)
	}
	r.RecordInitial("ds", e, []int32{1, 2, 3}, 1)
	sub, _, _ := e.Hub().Subscribe(0, false)

	result := []int32{1, 3, 4}
	eval := func(client.StandingQuery) ([]int32, uint64, error) { return result, 2, nil }
	r.Notify("ds", func(*Entry) bool { return true })
	r.RunEvals("ds", eval, nil)
	ev := <-sub.Events()
	if fmt.Sprint(ev.Joined) != "[4]" || fmt.Sprint(ev.Left) != "[2]" || ev.Version != 2 || !ev.MembersChanged {
		t.Fatalf("delta %+v, want joined [4] left [2] at version 2", ev)
	}

	// Same membership again: no event.
	r.Notify("ds", func(*Entry) bool { return true })
	r.RunEvals("ds", eval, nil)
	select {
	case ev := <-sub.Events():
		t.Fatalf("unchanged membership published %+v", ev)
	default:
	}
	if r.Evals() != 2 {
		t.Fatalf("evals counter %d, want 2", r.Evals())
	}
}

// TestRegistryInitialDoesNotRegressEval: a mutation batch landing between
// Register and the initial evaluation can run a RunEvals pass first (affects
// matches unevaluated entries); the later RecordInitial must not overwrite
// that newer published result with the older registration-time snapshot —
// the next eval would diff against a rewound baseline and emit bogus deltas.
func TestRegistryInitialDoesNotRegressEval(t *testing.T) {
	r := NewRegistry(Config{})
	if _, err := r.OpenDataset("ds"); err != nil {
		t.Fatal(err)
	}
	e, err := r.Register("ds", spec("", 4))
	if err != nil {
		t.Fatal(err)
	}
	// The racing mutation: evaluated at version 2 before RecordInitial runs.
	r.Notify("ds", func(*Entry) bool { return true })
	r.RunEvals("ds", func(client.StandingQuery) ([]int32, uint64, error) {
		return []int32{5, 6}, 2, nil
	}, nil)
	// The registration-time snapshot arrives late and older: a no-op.
	r.RecordInitial("ds", e, []int32{1, 2}, 1)
	members, version, evaluated := e.State()
	if !evaluated || version != 2 || fmt.Sprint(members) != "[5 6]" {
		t.Fatalf("state after late RecordInitial = %v/%d/%v, want the eval's [5 6]/2", members, version, evaluated)
	}
	// The next eval diffs against the eval's baseline, not the stale
	// snapshot: an unchanged result publishes nothing.
	sub, _, _ := e.Hub().Subscribe(0, false)
	r.Notify("ds", func(*Entry) bool { return true })
	r.RunEvals("ds", func(client.StandingQuery) ([]int32, uint64, error) {
		return []int32{5, 6}, 3, nil
	}, nil)
	select {
	case ev := <-sub.Events():
		t.Fatalf("unchanged membership after a late RecordInitial published %+v", ev)
	default:
	}
}

// TestRegistryRestartRestores: registrations and last state survive a
// registry restart via the sidecar; the restored entry's first evaluation
// publishes unconditionally (the converged-version event) with an event ID
// continuing the pre-restart numbering — a rebuilt hub restarting at 1 would
// collide with IDs subscribers already acked — and the sequence never
// re-mints a restored id.
func TestRegistryRestartRestores(t *testing.T) {
	dir := t.TempDir()
	r1 := NewRegistry(Config{Dir: dir})
	if _, err := r1.OpenDataset("ds"); err != nil {
		t.Fatal(err)
	}
	e, err := r1.Register("ds", spec("", 4))
	if err != nil {
		t.Fatal(err)
	}
	r1.RecordInitial("ds", e, []int32{1, 2}, 3)
	// One mutation-driven delta before the "crash": event 1 is published and
	// its ID persisted with the state record.
	r1.Notify("ds", func(*Entry) bool { return true })
	r1.RunEvals("ds", func(client.StandingQuery) ([]int32, uint64, error) {
		return []int32{1, 2, 9}, 4, nil
	}, nil)
	r1.CloseDataset("ds")

	r2 := NewRegistry(Config{Dir: dir})
	restored, err := r2.OpenDataset("ds")
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 || restored[0].ID != "sq-1" {
		t.Fatalf("restored %+v, want sq-1", restored)
	}
	e2, ok := r2.Get("ds", "sq-1")
	if !ok {
		t.Fatal("restored entry not in registry")
	}
	members, version, evaluated := e2.State()
	if !evaluated || version != 4 || fmt.Sprint(members) != "[1 2 9]" {
		t.Fatalf("restored state %v/%d/%v, want [1 2 9]/4/true", members, version, evaluated)
	}
	// First post-restart eval publishes even with unchanged membership, at
	// the converged version, numbered after the pre-restart event.
	sub, _, _ := e2.Hub().Subscribe(0, false)
	r2.MarkAllPending("ds")
	r2.RunEvals("ds", func(client.StandingQuery) ([]int32, uint64, error) {
		return []int32{1, 2, 9}, 7, nil
	}, nil)
	ev := <-sub.Events()
	if ev.Version != 7 || ev.MembersChanged {
		t.Fatalf("restored convergence event %+v, want version 7 unchanged", ev)
	}
	if ev.ID != 2 {
		t.Fatalf("convergence event id = %d, want 2 (numbering continues across the restart)", ev.ID)
	}
	// A subscriber that acked pre-restart event 1 and resumes against the
	// rebuilt hub sees no gap and no duplicate.
	if _, replay, gap := e2.Hub().Subscribe(1, true); gap || len(replay) != 1 || replay[0].ID != 2 {
		t.Fatalf("resume from pre-restart ack: gap=%v replay=%+v, want just event 2", gap, replay)
	}
	// Second eval with still-unchanged membership stays silent (restored
	// consumed).
	r2.MarkAllPending("ds")
	r2.RunEvals("ds", func(client.StandingQuery) ([]int32, uint64, error) {
		return []int32{1, 2, 9}, 8, nil
	}, nil)
	select {
	case ev := <-sub.Events():
		t.Fatalf("second post-restart eval published %+v", ev)
	default:
	}
	// The restored id occupies the sequence.
	e3, err := r2.Register("ds", spec("", 9))
	if err != nil {
		t.Fatal(err)
	}
	if e3.Spec().ID != "sq-2" {
		t.Fatalf("post-restore mint %q, want sq-2", e3.Spec().ID)
	}
}

// TestRegistryDropDataset: teardown publishes terminal events, removes the
// sidecar, and refuses registrations racing the drop.
func TestRegistryDropDataset(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry(Config{Dir: dir})
	if _, err := r.OpenDataset("ds"); err != nil {
		t.Fatal(err)
	}
	e, err := r.Register("ds", spec("", 4))
	if err != nil {
		t.Fatal(err)
	}
	sub, _, _ := e.Hub().Subscribe(0, false)
	r.DropDataset("ds", "dataset deleted")
	ev := <-sub.Events()
	if !ev.Terminal || ev.Reason != "dataset deleted" {
		t.Fatalf("drop event %+v, want terminal", ev)
	}
	if _, open := <-sub.Events(); open {
		t.Fatal("subscriber channel still open after drop")
	}
	if _, err := os.Stat(SidecarPath(dir, "ds")); !os.IsNotExist(err) {
		t.Fatalf("sidecar survived the drop: %v", err)
	}
	if _, err := r.Register("ds", spec("", 4)); err == nil {
		t.Fatal("registration on a dropped dataset succeeded")
	}
	if r.Count() != 0 {
		t.Fatalf("count after drop %d, want 0", r.Count())
	}
}

// TestRegistryConcurrentNotifyEvalRegister: registrations, notifies, eval
// passes, and deletes race under -race without losing the running-flag
// invariant (at most one pass per dataset, pending never stranded).
func TestRegistryConcurrentNotifyEvalRegister(t *testing.T) {
	r := NewRegistry(Config{})
	if _, err := r.OpenDataset("ds"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := fmt.Sprintf("sq-g%d-%d", g, i)
				if _, err := r.Register("ds", spec(id, 4)); err != nil {
					t.Errorf("register %s: %v", id, err)
					return
				}
				if _, start := r.Notify("ds", func(*Entry) bool { return true }); start {
					r.RunEvals("ds", func(client.StandingQuery) ([]int32, uint64, error) {
						return []int32{1}, uint64(i), nil
					}, nil)
				}
				if i%3 == 0 {
					_ = r.Delete("ds", id, "churn")
				}
			}
		}(g)
	}
	wg.Wait()
	// Whatever survived, a final notify+run must drain cleanly.
	if _, start := r.Notify("ds", func(*Entry) bool { return true }); start {
		r.RunEvals("ds", func(client.StandingQuery) ([]int32, uint64, error) {
			return []int32{1}, 99, nil
		}, nil)
	}
}
