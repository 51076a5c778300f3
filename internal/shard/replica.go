package shard

// Replica maintenance: the jobs and reconciles that keep every follower in a
// dataset's replica set holding a live copy.
//
// A replica set is ordered — primary first — and recorded in the assignment
// table (shard.go). The primary serves reads and takes control-plane writes;
// followers exist so the read path has somewhere to fail over to when the
// primary dies mid-request. Followers are populated asynchronously by
// replicate jobs: a create (or snapshot restore) answers as soon as the
// primary serves, and a background job streams the primary's snapshot to each
// follower shard-to-shard — the bytes flow through an io.Pipe, never
// buffering a whole dataset in router memory.
//
// A follower that holds a copy is current as long as every mutation forward
// to it has succeeded (the router applies writes to the primary and replays
// them on each follower). A follower that missed a forward is marked stale
// (shard.go) and treated like a missing copy here: dropped and re-streamed
// from the primary's snapshot. Replicate jobs are idempotent either way and
// safe to re-run after a router restart (journal.go) or against a follower
// that restarted empty.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"roadsocial/client"
	"roadsocial/internal/mac"
)

// submitReplicate enqueues a background job that syncs every follower in the
// dataset's replica set from the primary. At most one replicate job per
// dataset runs at a time (a second submission while one is in flight is a
// no-op: the running job reads the replica set when it executes, so it covers
// whatever state the second caller saw). The job is journaled before it is
// enqueued, so a router restart re-runs it instead of forgetting it.
func (rt *Router) submitReplicate(name, auth string) {
	rt.mu.Lock()
	if rt.syncing[name] {
		rt.mu.Unlock()
		return
	}
	rt.syncing[name] = true
	rt.mu.Unlock()
	release := func() {
		rt.mu.Lock()
		delete(rt.syncing, name)
		rt.mu.Unlock()
	}
	id := rt.jobs.NewID()
	rt.journalStart(journalEntry{
		ID: id, Kind: client.JobKindReplicate, Dataset: name,
		Replicas: rt.namesOf(rt.replicaSetFor(name)),
	})
	_, err := rt.jobs.Submit(id, client.JobKindReplicate, name, "",
		func(cancel <-chan struct{}, progress func(string)) (*client.DatasetInfo, error) {
			defer release()
			info, err := rt.runReplicate(name, auth, cancel, progress)
			rt.journalFinish(id, err)
			return info, err
		})
	if err != nil {
		release()
		rt.journalFinish(id, err)
		return
	}
	rt.replicaSyncs.Add(1)
}

// runReplicate executes one replicate job: for each follower in the replica
// set that is reachable and either missing the dataset or holding a
// stale-marked copy (a missed mutation forward), stream the primary's
// snapshot over and warm the follower's prepared cache from the primary's
// hot keys. A stale copy is deleted on the follower first — the restore
// path refuses to overwrite a registered dataset — and its stale mark is
// cleared only once the fresh copy has landed. Unmarked holders are skipped
// (they are current: every mutation forward to them succeeded). Any
// follower that cannot be synced fails the job visibly — the next
// probe-driven SyncReplicas retries.
func (rt *Router) runReplicate(name, auth string, cancel <-chan struct{}, progress func(string)) (*client.DatasetInfo, error) {
	set := rt.replicaSetFor(name)
	primary := set[0]
	var errs []error
	for _, f := range set[1:] {
		if chanClosed(cancel) {
			errs = append(errs, mac.ErrCanceled)
			break
		}
		ds, err := rt.backends[f].Datasets()
		if err != nil {
			errs = append(errs, fmt.Errorf("follower %s unreachable: %w", rt.backends[f].Name(), err))
			continue
		}
		holds := contains(ds, name)
		if holds && !rt.isReplicaStale(name, f) {
			continue
		}
		progress("sync " + rt.backends[f].Name())
		if holds {
			if _, err := rt.forward(f, http.MethodDelete, "/v1/datasets/"+name, nil, auth, ""); err != nil {
				errs = append(errs, fmt.Errorf("dropping stale copy of %q on %s: %w", name, rt.backends[f].Name(), err))
				continue
			}
		}
		if err := rt.streamSnapshot(name, primary, f, auth); err != nil {
			errs = append(errs, err)
			continue
		}
		rt.clearReplicaStale(name, f)
		// Best-effort: a cold follower still answers correctly, just slower
		// on its first requests.
		rt.warmReplica(name, primary, f, auth)
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return &client.DatasetInfo{
		Dataset:  name,
		Shard:    rt.backends[primary].Name(),
		Replicas: rt.backendNames(set),
	}, nil
}

// SyncReplicas reconciles replica sets against the backends' actual dataset
// lists, the replica-aware sibling of SyncAssignments. Two repairs:
//
//   - dead-primary rotation: a replica set whose primary is unreachable while
//     a reachable follower holds the dataset is rotated so that follower
//     leads — control-plane writes and replicate jobs need a live primary,
//     not just the read path's per-request failover. The demoted primary
//     stays in the set; when it comes back, its copy is either still there
//     (nothing to do) or gone (gap-filled below).
//   - gap-filling: a reachable follower missing its dataset gets a replicate
//     job. This is how a follower that died and restarted empty regains its
//     copies, and how a drained move's planned followers get populated.
//
// Rotations are guarded by the assignment generation like SyncAssignments'
// re-pins: the dataset lists are a snapshot, and acting on them after a
// concurrent flip could undo a move's cutover. It returns the number of
// repairs initiated (rotations applied plus replicate jobs submitted).
func (rt *Router) SyncReplicas() int {
	rt.mu.RLock()
	startGen := rt.assignGen
	sets := make(map[string][]int, len(rt.assign))
	for ds, set := range rt.assign {
		if len(set) > 1 {
			sets[ds] = append([]int(nil), set...)
		}
	}
	rt.mu.RUnlock()
	if len(sets) == 0 {
		return 0
	}

	// Reachability is tracked separately from the lists: a healthy backend
	// holding zero datasets answers with an empty (nil) list, which must not
	// read as "unreachable" — that is exactly the state of a follower that
	// died and restarted empty, the main gap-filling customer.
	lists := make([][]string, len(rt.backends))
	reachable := make([]bool, len(rt.backends))
	rt.fanOut(func(i int, b Backend) {
		ds, err := b.Datasets()
		rt.recordProbe(i, err)
		rt.down[i].Store(err != nil)
		if err != nil {
			return
		}
		reachable[i] = true
		lists[i] = ds
	})

	repairs := 0
	type rotation struct {
		name string
		set  []int
	}
	var rotations []rotation
	for name, set := range sets {
		if rt.isMoving(name) || rt.isSyncing(name) {
			continue
		}
		primary := set[0]
		if !reachable[primary] {
			// Primary unreachable: rotate to the first follower that provably
			// holds a copy, if any. A stale-marked follower never leads —
			// promoting a diverged copy would fork the dataset's history for
			// every write that follows.
			for _, f := range set[1:] {
				if reachable[f] && contains(lists[f], name) && !rt.isReplicaStale(name, f) {
					ns := []int{f}
					for _, m := range set {
						if m != f {
							ns = append(ns, m)
						}
					}
					rotations = append(rotations, rotation{name: name, set: ns})
					break
				}
			}
			continue
		}
		if !contains(lists[primary], name) {
			// Primary reachable but empty-handed: SyncAssignments owns this
			// case (promote a holder, wherever it is).
			continue
		}
		for _, f := range set[1:] {
			if reachable[f] && (!contains(lists[f], name) || rt.isReplicaStale(name, f)) {
				// Missing a copy, or holding one marked stale by a missed
				// mutation forward: either way a snapshot re-copy repairs it.
				rt.submitReplicate(name, "")
				repairs++
				break
			}
		}
	}

	if len(rotations) > 0 {
		rt.mu.Lock()
		if rt.assignGen == startGen {
			for _, rot := range rotations {
				if rt.moving[rot.name] {
					continue
				}
				rt.setReplicasLocked(rot.name, rot.set)
				repairs++
			}
		}
		rt.mu.Unlock()
	}
	return repairs
}

// isSyncing reports whether a replicate job for the dataset is in flight.
func (rt *Router) isSyncing(name string) bool {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.syncing[name]
}

// namesOf maps backend indices to shard names (unconditionally, unlike
// backendNames which elides single-member sets from wire payloads).
func (rt *Router) namesOf(set []int) []string {
	names := make([]string, len(set))
	for i, idx := range set {
		names[i] = rt.backends[idx].Name()
	}
	return names
}

// streamSnapshot copies a dataset snapshot from backend src to backend dst
// without ever holding it in router memory: the export side writes into an
// io.Pipe as the restore side reads from it, so the router's footprint is
// one pipe buffer regardless of dataset size. The export runs on its own
// goroutine; the restore consumes the pipe on this one. After the restore
// returns, the read end is closed with an error so an export still mid-write
// (the restore may fail early) unblocks and exits.
func (rt *Router) streamSnapshot(name string, src, dst int, auth string) error {
	pr, pw := io.Pipe()
	getDone := make(chan error, 1)
	go func() {
		req, err := http.NewRequest(http.MethodGet, "/v1/datasets/"+name+"/snapshot", nil)
		if err != nil {
			pw.CloseWithError(err)
			getDone <- err
			return
		}
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		ss := &snapshotStream{pw: pw}
		rt.backends[src].ServeAPI(ss, req)
		err = ss.err()
		pw.CloseWithError(err) // nil err closes cleanly: restore sees EOF
		getDone <- err
	}()

	req, err := http.NewRequest(http.MethodPut, "/v1/datasets/"+name+"/snapshot", pr)
	if err != nil {
		pr.CloseWithError(err)
		<-getDone
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if auth != "" {
		req.Header.Set("Authorization", auth)
	}
	rec := newRecorder()
	rt.backends[dst].ServeAPI(rec, req)
	// Unblock the export if it is still writing (restore aborted early).
	pr.CloseWithError(errors.New("shard: snapshot restore side closed"))
	getErr := <-getDone
	if getErr != nil {
		return fmt.Errorf("snapshot export of %q from %s: %w", name, rt.backends[src].Name(), getErr)
	}
	if rec.code != http.StatusCreated {
		msg := errorMessage(rec.body.Bytes())
		if msg == "" {
			msg = fmt.Sprintf("status %d", rec.code)
		}
		return fmt.Errorf("snapshot restore of %q on %s: %s", name, rt.backends[dst].Name(), msg)
	}
	return nil
}

// snapshotStream is the ResponseWriter the export side of streamSnapshot
// serves into: a 200 body streams into the pipe, anything else buffers a
// bounded error body for the failure message. It implements the proxyFailed
// sink so a mid-body connection loss fails the transfer instead of
// truncating it (the restore side would reject the truncated stream on
// checksum anyway; this names the real cause).
type snapshotStream struct {
	pw      *io.PipeWriter
	code    int
	header  http.Header
	errBody []byte
	perr    error
}

func (s *snapshotStream) Header() http.Header {
	if s.header == nil {
		s.header = http.Header{}
	}
	return s.header
}

func (s *snapshotStream) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
}

func (s *snapshotStream) Write(p []byte) (int, error) {
	if s.code == 0 {
		s.code = http.StatusOK
	}
	if s.code != http.StatusOK {
		if room := 4096 - len(s.errBody); room > 0 {
			if len(p) < room {
				room = len(p)
			}
			s.errBody = append(s.errBody, p[:room]...)
		}
		return len(p), nil
	}
	return s.pw.Write(p)
}

func (s *snapshotStream) proxyFailed(err error) { s.perr = err }

// err folds the export outcome into one error (nil on a complete 200).
func (s *snapshotStream) err() error {
	if s.perr != nil {
		return s.perr
	}
	if s.code != 0 && s.code != http.StatusOK {
		msg := errorMessage(s.errBody)
		if msg == "" {
			msg = fmt.Sprintf("status %d", s.code)
		}
		return errors.New(msg)
	}
	return nil
}

// warmReplica replays the primary's hot prepared-cache keys against a freshly
// synced follower, so the first failover request after a primary death hits a
// warm cache instead of paying a cold Prepare. Strictly best-effort: a
// follower that cannot be warmed is still correct.
func (rt *Router) warmReplica(name string, src, dst int, auth string) {
	rec, err := rt.forward(src, http.MethodGet, "/v1/datasets/"+name+"/hotkeys", nil, auth, "")
	if err != nil {
		return
	}
	var resp client.HotKeysResponse
	if json.Unmarshal(rec.body.Bytes(), &resp) != nil {
		return
	}
	for _, hk := range resp.Keys {
		body, err := json.Marshal(client.SearchRequest{Q: hk.Q, K: hk.K, T: hk.T, Algo: hk.Algo})
		if err != nil {
			continue
		}
		// The ktcore route prepares the engine state without running a
		// search — exactly the cache-population half of the hot request.
		_, _ = rt.forward(dst, http.MethodPost, "/v1/datasets/"+name+"/ktcore",
			bytes.NewReader(body), auth, "application/json")
	}
}
