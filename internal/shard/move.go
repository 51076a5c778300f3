package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"roadsocial/client"
	"roadsocial/internal/mac"
)

// Copy-then-cutover dataset moves.
//
// The pre-move way to relocate a dataset — DELETE, then POST with a new
// shard pin — leaves a window where the dataset exists nowhere and every
// request answers 404. The move job closes that window completely:
//
//  1. snapshot — wait until every write registered before the claim has
//     returned, then export the dataset from the source shard (the
//     versioned, checksummed snapshot; the built G-tree travels inside, so
//     the target never rebuilds it). The source keeps serving throughout.
//  2. restore — upload the snapshot to the target shard. Both shards now
//     hold the dataset; requests still route to the source.
//  3. cutover — flip the assignment table under its lock (and, when
//     persistence is on, mirror the flip to disk in the same critical
//     section). Every request that resolves its owner after this instant
//     reaches the target, which is already serving.
//  4. drain — wait until every request that resolved the source *before*
//     the flip has returned (the router counts routing decisions per
//     (dataset, shard), so this is exact, not a sleep).
//  5. cleanup — delete the source copy. In-flight searches on the source
//     finished in step 4; the service additionally lets any stragglers
//     finish on the memory they hold.
//
// A concurrently-querying client therefore sees only 2xx answers through
// the whole move — no 404 gap, no 502 restart window — which is the
// acceptance bar the looping-client test holds this code to. While the job
// runs, creates, deletes and mutations of the dataset answer 409 (the job
// owns the lifecycle), and SyncAssignments skips it (during the copy window
// both shards hold it, and a background sync pinning the doomed source copy
// would undo the cutover).

// moveDrainTimeout bounds the two waits of a move. If writes registered
// before the claim have not returned by then, the job fails before copying
// anything. If source-routed requests have not returned by then after the
// cutover, the job fails and the source copy is retained (two live copies
// route correctly — the assignment already points at the target — so
// failing safe costs memory, never availability).
const moveDrainTimeout = 60 * time.Second

// serveMoveDataset handles POST /v1/datasets/{name}/move: validate the
// target, claim the dataset's lifecycle, and answer 202 with the job that
// performs the copy-then-cutover.
func (rt *Router) serveMoveDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req client.MoveRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad move request: %w", err))
		return
	}
	tgt, ok := rt.byName[req.Shard]
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown shard %q", req.Shard))
		return
	}
	// The dataset must exist on its current owner; a 404 here beats a
	// doomed job. The probe also catches an unreachable owner early (502).
	src := rt.OwnerIndex(name)
	ds, err := rt.backends[src].Datasets()
	if err != nil {
		writeError(w, http.StatusBadGateway, fmt.Errorf(
			"cannot reach %q's owner %s: %v", name, rt.backends[src].Name(), err))
		return
	}
	found := false
	for _, d := range ds {
		if d == name {
			found = true
			break
		}
	}
	if !found {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown dataset %q", name))
		return
	}

	// Claim the lifecycle: one move at a time per dataset, and no
	// create/delete may interleave.
	rt.mu.Lock()
	if rt.moving[name] {
		rt.mu.Unlock()
		writeError(w, http.StatusConflict, fmt.Errorf("dataset %q is already mid-move", name))
		return
	}
	rt.moving[name] = true
	rt.mu.Unlock()

	auth := r.Header.Get("Authorization")
	release := func() {
		rt.mu.Lock()
		delete(rt.moving, name)
		rt.mu.Unlock()
	}
	old := rt.replicaSetFor(name)
	planned := rt.planMove(name, old, src, tgt)
	// Journal before enqueue: the id is reserved first, so a crash between
	// the journal write and the submission leaves a recoverable entry, never
	// a job the journal has no record of.
	id := rt.jobs.NewID()
	rt.journalStart(journalEntry{
		ID: id, Kind: client.JobKindMove, Dataset: name,
		Source: rt.backends[src].Name(), Target: rt.backends[tgt].Name(),
		Replicas: rt.namesOf(planned),
	})
	job, err := rt.jobs.Submit(id, client.JobKindMove, name,
		r.Header.Get(client.HeaderRequestID),
		func(cancel <-chan struct{}, progress func(string)) (*client.DatasetInfo, error) {
			info, err := rt.runMove(name, src, tgt, planned, auth, cancel, progress, release)
			rt.journalFinish(id, err)
			return info, err
		})
	if err != nil {
		release()
		rt.journalFinish(id, err)
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job)
}

// planMove composes the replica set a move leaves behind: the target leads,
// existing members other than source and target stay followers, and the set
// is refilled to its old size with ring candidates (backends outside the old
// set first; the source only as a last resort) so a move never silently
// shrinks a dataset's redundancy. An unreplicated dataset (old set of one)
// plans exactly [tgt] — the pre-replication behavior. When the source lands
// in the planned set (e.g. a two-backend fleet moving primary to its
// follower), the move is a role swap: no source delete, no drain.
func (rt *Router) planMove(name string, old []int, src, tgt int) []int {
	planned := []int{tgt}
	for _, m := range old {
		if m != tgt && m != src {
			planned = append(planned, m)
		}
	}
	if want := len(old); len(planned) < want {
		cands := rt.ringReplicas(name, len(rt.backends))
		for pass := 0; pass < 2 && len(planned) < want; pass++ {
			for _, c := range cands {
				if len(planned) >= want {
					break
				}
				if containsInt(planned, c) || (pass == 0 && c == src) {
					continue
				}
				planned = append(planned, c)
			}
		}
	}
	return planned
}

// runMove executes the copy-then-cutover on a job worker. cancel is
// honored between phases; once the cutover has happened the move always
// runs to completion (aborting mid-cutover would be the one thing that
// could strand state). release clears the dataset's moving claim: runMove
// calls it on every path except a drain timeout, where the background
// cleanup inherits it — the claim keeps creates, deletes, other moves,
// and SyncAssignments away from the dataset until exactly one copy
// remains.
func (rt *Router) runMove(name string, src, tgt int, planned []int, auth string, cancel <-chan struct{}, progress func(string), release func()) (*client.DatasetInfo, error) {
	detached := false
	defer func() {
		if !detached {
			release()
		}
	}()
	if src == tgt {
		// Already home: answer with the dataset's info, no copy at all.
		progress("noop")
		return rt.datasetInfoOn(tgt, name)
	}

	progress("copy")
	// A write registered before the claim may still be on its way to the
	// source; a copy taken now would miss it.
	deadline := time.Now().Add(moveDrainTimeout)
	for {
		if chanClosed(cancel) {
			return nil, mac.ErrCanceled
		}
		n := rt.writesInFlight(name)
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%d write(s) to %q still in flight after %v; nothing was moved",
				n, name, moveDrainTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	// The copy streams shard-to-shard through a pipe — the router never
	// holds the snapshot in memory. A target that already has a copy (it
	// was a follower) skips the copy — unless that copy is stale-marked
	// (it missed a mutation forward), in which case promoting it would
	// publish a forked history: the stale copy is dropped and re-streamed.
	ds, err := rt.backends[tgt].Datasets()
	if err != nil {
		return nil, fmt.Errorf("cannot reach target %s: %w", rt.backends[tgt].Name(), err)
	}
	holds := contains(ds, name)
	if holds && rt.isReplicaStale(name, tgt) {
		if _, err := rt.forward(tgt, http.MethodDelete, "/v1/datasets/"+name, nil, auth, ""); err != nil {
			return nil, fmt.Errorf("dropping stale copy of %q on target %s: %w", name, rt.backends[tgt].Name(), err)
		}
		holds = false
	}
	if !holds {
		if err := rt.streamSnapshot(name, src, tgt, auth); err != nil {
			return nil, err
		}
		rt.clearReplicaStale(name, tgt)
	}
	info := client.DatasetInfo{
		Dataset:  name,
		Shard:    rt.backends[tgt].Name(),
		Replicas: rt.backendNames(planned),
	}

	// Point of no return: from here the move completes regardless of
	// cancellation — both copies are live and the flip is atomic.
	progress("cutover")
	rt.pinSet(name, planned)

	if containsInt(planned, src) {
		// Role swap: the source stays in the replica set, so there is
		// nothing to delete and therefore nothing to drain.
		rt.fillFollowers(name, planned, auth)
		return &info, nil
	}

	progress("drain")
	deadline = time.Now().Add(moveDrainTimeout)
	for rt.routedInFlight(name, src) > 0 {
		if time.Now().After(deadline) {
			// Fail the job visibly but keep working: the assignment already
			// routes to the target, so availability is intact; the detached
			// cleanup keeps draining and deleting, holding the moving claim
			// so nothing (including SyncAssignments) touches the retained
			// source copy meanwhile.
			inFlight := rt.routedInFlight(name, src)
			rt.drainTimeouts.Add(1)
			slog.Warn("move drain timed out; source copy retained while cleanup continues",
				"dataset", name, "source", rt.backends[src].Name(),
				"target", rt.backends[tgt].Name(), "in_flight", inFlight)
			detached = true
			go rt.finishCleanup(name, src, auth, release)
			return &info, fmt.Errorf("drain timeout: %d request(s) still in flight on %s; source cleanup continues in the background",
				inFlight, rt.backends[src].Name())
		}
		time.Sleep(time.Millisecond)
	}

	progress("cleanup")
	if _, err := rt.forward(src, http.MethodDelete, "/v1/datasets/"+name, nil, auth, ""); err != nil {
		return &info, fmt.Errorf("source cleanup on %s (dataset already serving from %s): %w",
			rt.backends[src].Name(), rt.backends[tgt].Name(), err)
	}
	rt.fillFollowers(name, planned, auth)
	return &info, nil
}

// fillFollowers submits a replicate job when the planned set names followers
// that may not hold the dataset yet (a replicated dataset whose move pulled
// in a fresh ring candidate).
func (rt *Router) fillFollowers(name string, planned []int, auth string) {
	if len(planned) > 1 {
		rt.submitReplicate(name, auth)
	}
}

// finishCleanup is the detached tail of a move whose drain timed out: keep
// waiting for the stragglers, then delete the source copy (retrying while
// the source is unreachable), and only then release the moving claim. The
// overall budget is bounded — a source that stays unreachable for the
// whole window leaves its stale copy behind, and the reconcile rule in
// SyncAssignments guarantees that copy can never steal routing from the
// live one.
func (rt *Router) finishCleanup(name string, src int, auth string, release func()) {
	defer release()
	deadline := time.Now().Add(10 * time.Minute)
	for rt.routedInFlight(name, src) > 0 {
		if time.Now().After(deadline) {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	for time.Now().Before(deadline) {
		if _, err := rt.forward(src, http.MethodDelete, "/v1/datasets/"+name, nil, auth, ""); err == nil {
			return
		}
		time.Sleep(5 * time.Second)
	}
}

// forward replays one request against a backend through its ServeAPI,
// returning the recorder on any 2xx and an error carrying the shard's
// message otherwise.
func (rt *Router) forward(idx int, method, path string, body *bytes.Reader, auth, contentType string) (*recorder, error) {
	var rd *bytes.Reader
	if body != nil {
		rd = body
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, path, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if auth != "" {
		req.Header.Set("Authorization", auth)
	}
	rec := newRecorder()
	rt.backends[idx].ServeAPI(rec, req)
	if rec.code/100 != 2 {
		msg := errorMessage(rec.body.Bytes())
		if msg == "" {
			msg = fmt.Sprintf("status %d", rec.code)
		}
		return nil, errors.New(msg)
	}
	return rec, nil
}

// datasetInfoOn asks a backend for a dataset's info by snapshotting its
// health list — a no-op move has nothing better to report than existence.
func (rt *Router) datasetInfoOn(idx int, name string) (*client.DatasetInfo, error) {
	ds, err := rt.backends[idx].Datasets()
	if err != nil {
		return nil, err
	}
	for _, d := range ds {
		if d == name {
			return &client.DatasetInfo{Dataset: name, Shard: rt.backends[idx].Name()}, nil
		}
	}
	return nil, fmt.Errorf("dataset %q not on shard %s", name, rt.backends[idx].Name())
}

// chanClosed reports whether c is closed; nil channels report false.
func chanClosed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// StartProber launches a background loop that re-syncs the assignment
// table and the replica sets from the backends every interval — the belt to
// noteProbe's suspenders: even with no organic health traffic, a peer that
// comes back from an outage is re-adopted (and its follower copies
// restored) within one interval. Returns a stop function. interval <= 0
// selects 15s.
func (rt *Router) StartProber(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 15 * time.Second
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				rt.SyncAssignments()
				rt.SyncReplicas()
			}
		}
	}()
	return func() { close(done) }
}
