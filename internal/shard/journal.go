package shard

// Durable job journal for the router's control-plane jobs.
//
// Replicate and move jobs mutate cluster state across multiple shards over
// seconds to minutes; a router that restarts mid-job must not simply forget
// it — a move could be left half-cut-over, a replica set half-populated, and
// nothing would ever finish the work. The journal is a durable.Log of
// JSON-encoded entries next to the assignments file: a "started" entry is
// written before a job is enqueued, a terminal "done"/"failed" entry when it
// settles. On startup (EnableJobJournal) the entries fold by job id; every
// id whose latest state is "started" is recovered:
//
//   - replicate: re-submitted whole under the same id. Replication is
//     idempotent over immutable datasets, so re-running from the top is
//     always correct.
//   - move: if the target provably holds the dataset, the copy completed
//     before the crash and the recovery finishes the tail (pin the planned
//     set, delete the source copy unless it stays a member). Otherwise the
//     job is re-registered as failed with an explicit "restarted before the
//     copy completed" error — the source still serves, nothing is lost, and
//     the operator (or client polling the job id) is told to re-issue the
//     move rather than being left with a silently vanished job.
//
// The journal compacts on open — settled entries are dropped, only pending
// ones are rewritten — so it stays proportional to in-flight work, not to
// history.

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"roadsocial/client"
	"roadsocial/internal/durable"
	"roadsocial/internal/service"
)

const jobJournalMagic = "RJOBJv1\n"

// Journal entry states.
const (
	journalStarted = "started"
	journalDone    = "done"
	journalFailed  = "failed"
)

// journalEntry is one journal record. A "started" entry carries the job's
// full description; terminal entries need only the id and outcome (the fold
// keeps the description from the start entry).
type journalEntry struct {
	ID      string `json:"id"`
	Kind    string `json:"kind,omitempty"`
	Dataset string `json:"dataset,omitempty"`
	// Source and Target name shards for move jobs.
	Source string `json:"source,omitempty"`
	Target string `json:"target,omitempty"`
	// Replicas is the planned replica set after the job, shard names,
	// primary first.
	Replicas []string  `json:"replicas,omitempty"`
	State    string    `json:"state"`
	Error    string    `json:"error,omitempty"`
	At       time.Time `json:"at"`
}

// jobJournal is the append handle. Appends are synchronous and fsynced:
// control-plane jobs are rare and the whole point is surviving a crash.
type jobJournal struct {
	log  *durable.Log
	path string
}

// openJobJournal loads the journal at path, folds its entries by job id, and
// returns the pending (started, never settled) entries in first-seen order
// alongside a compacted append handle. A missing file is an empty journal; a
// torn final entry (crash mid-append) is dropped.
func openJobJournal(path string) (*jobJournal, []journalEntry, error) {
	payloads, err := durable.Read(path, jobJournalMagic)
	if err != nil {
		return nil, nil, fmt.Errorf("shard: job journal: %w", err)
	}
	byID := make(map[string]journalEntry)
	var order []string
	for _, p := range payloads {
		var e journalEntry
		if json.Unmarshal(p, &e) != nil || e.ID == "" {
			continue
		}
		if prev, seen := byID[e.ID]; seen {
			// Terminal entries are sparse; keep the start entry's fields.
			if e.Kind == "" {
				e.Kind = prev.Kind
			}
			if e.Dataset == "" {
				e.Dataset = prev.Dataset
			}
			if e.Source == "" {
				e.Source = prev.Source
			}
			if e.Target == "" {
				e.Target = prev.Target
			}
			if len(e.Replicas) == 0 {
				e.Replicas = prev.Replicas
			}
		} else {
			order = append(order, e.ID)
		}
		byID[e.ID] = e
	}

	// Compact: keep only the pending entries.
	var pending []journalEntry
	var live [][]byte
	for _, id := range order {
		if e := byID[id]; e.State == journalStarted {
			p, err := json.Marshal(e)
			if err != nil {
				return nil, nil, fmt.Errorf("shard: job journal: %w", err)
			}
			pending = append(pending, e)
			live = append(live, p)
		}
	}
	log, err := durable.Rewrite(path, jobJournalMagic, live)
	if err != nil {
		return nil, nil, fmt.Errorf("shard: job journal: %w", err)
	}
	return &jobJournal{log: log, path: path}, pending, nil
}

// append journals one entry. A failure is logged, not returned: a full disk
// must not fail the job whose progress it records.
func (j *jobJournal) append(e journalEntry) {
	e.At = time.Now().UTC()
	p, err := json.Marshal(e)
	if err == nil {
		err = j.log.Append(p)
	}
	if err != nil {
		slog.Warn("job journal append failed", "path", j.path, "job", e.ID, "state", e.State, "err", err)
	}
}

// journalStart records a job about to be enqueued. No-op without a journal.
func (rt *Router) journalStart(e journalEntry) {
	if rt.journal == nil {
		return
	}
	e.State = journalStarted
	rt.journal.append(e)
}

// journalFinish records a job's terminal state. No-op without a journal.
func (rt *Router) journalFinish(id string, err error) {
	if rt.journal == nil {
		return
	}
	e := journalEntry{ID: id, State: journalDone}
	if err != nil {
		e.State = journalFailed
		e.Error = err.Error()
	}
	rt.journal.append(e)
}

// EnableJobJournal turns on the durable job journal at path (cmd/macserver
// uses the assignments file's path plus ".jobs") and recovers every job the
// previous process left in flight. Call after PersistAssignments and before
// serving traffic. It returns how many jobs were recovered (resumed or
// explicitly failed).
func (rt *Router) EnableJobJournal(path string) (int, error) {
	j, pending, err := openJobJournal(path)
	if err != nil {
		return 0, err
	}
	rt.journal = j
	recovered := 0
	for _, e := range pending {
		switch e.Kind {
		case client.JobKindReplicate:
			rt.recoverReplicate(e)
		case client.JobKindMove:
			rt.recoverMove(e)
		default:
			rt.journalFinish(e.ID, fmt.Errorf("unknown journaled job kind %q", e.Kind))
			continue
		}
		recovered++
	}
	return recovered, nil
}

// recoverReplicate re-runs a journaled replicate job under its original id.
func (rt *Router) recoverReplicate(e journalEntry) {
	rt.mu.Lock()
	if rt.syncing[e.Dataset] {
		rt.mu.Unlock()
		rt.journalFinish(e.ID, errors.New("superseded by a newer replicate job"))
		return
	}
	rt.syncing[e.Dataset] = true
	rt.mu.Unlock()
	release := func() {
		rt.mu.Lock()
		delete(rt.syncing, e.Dataset)
		rt.mu.Unlock()
	}
	// No client auth survives a restart; Remote backends attach their own
	// peer token to forwarded calls, so recovery works in -auth-token fleets.
	_, err := rt.jobs.Submit(e.ID, client.JobKindReplicate, e.Dataset, "",
		func(cancel <-chan struct{}, progress func(string)) (*client.DatasetInfo, error) {
			defer release()
			info, err := rt.runReplicate(e.Dataset, "", cancel, progress)
			rt.journalFinish(e.ID, err)
			return info, err
		})
	if err != nil {
		release()
		rt.journalFinish(e.ID, err)
	}
}

// recoverMove finishes or explicitly fails a journaled move under its
// original id, so a client polling the job finds the truth rather than 404.
func (rt *Router) recoverMove(e journalEntry) {
	rt.mu.Lock()
	claimed := !rt.moving[e.Dataset]
	if claimed {
		rt.moving[e.Dataset] = true
	}
	rt.mu.Unlock()
	release := func() {
		if claimed {
			rt.mu.Lock()
			delete(rt.moving, e.Dataset)
			rt.mu.Unlock()
		}
	}
	submit := func(run service.JobFunc) {
		if _, err := rt.jobs.Submit(e.ID, client.JobKindMove, e.Dataset, "", run); err != nil {
			release()
			rt.journalFinish(e.ID, err)
		}
	}
	settle := func(err error) (*client.DatasetInfo, error) {
		rt.journalFinish(e.ID, err)
		return nil, err
	}
	tgt, ok := rt.byName[e.Target]
	if !ok {
		submit(func(<-chan struct{}, func(string)) (*client.DatasetInfo, error) {
			defer release()
			return settle(fmt.Errorf("journaled move names unknown target shard %q", e.Target))
		})
		return
	}
	src, hasSrc := rt.byName[e.Source]
	var planned []int
	for _, n := range e.Replicas {
		if idx, known := rt.byName[n]; known && !containsInt(planned, idx) {
			planned = append(planned, idx)
		}
	}
	if len(planned) == 0 || planned[0] != tgt {
		planned = append([]int{tgt}, planned...)
	}
	submit(func(cancel <-chan struct{}, progress func(string)) (*client.DatasetInfo, error) {
		defer release()
		progress("recover")
		ds, err := rt.backends[tgt].Datasets()
		if err != nil {
			return settle(fmt.Errorf("cannot reach move target %s after restart: %w", e.Target, err))
		}
		if !contains(ds, e.Dataset) {
			return settle(fmt.Errorf(
				"router restarted before the copy of %q to %s completed; the dataset still serves from %s — re-issue the move",
				e.Dataset, e.Target, e.Source))
		}
		// The copy landed before the crash: finish the tail. No drain is
		// needed — every pre-crash in-flight request died with the process.
		progress("cutover")
		rt.pinSet(e.Dataset, planned)
		if hasSrc && !containsInt(planned, src) {
			progress("cleanup")
			if _, err := rt.forward(src, http.MethodDelete, "/v1/datasets/"+e.Dataset, nil, "", ""); err != nil {
				return settle(fmt.Errorf(
					"move of %q finished after restart but source cleanup on %s failed: %w",
					e.Dataset, e.Source, err))
			}
		}
		rt.journalFinish(e.ID, nil)
		return &client.DatasetInfo{
			Dataset: e.Dataset, Shard: e.Target, Replicas: rt.backendNames(planned),
		}, nil
	})
}
