// Package standing implements standing queries: registered MAC queries the
// server re-evaluates when a relevant mutation batch installs, pushing
// membership deltas to subscribers over SSE. The package owns the resource
// registry, its crash-durable sidecar (one durable.Log per dataset, next to
// the mutation journal), the per-query event ring + subscriber hubs, and
// the coalescing re-evaluation state machine; the service layer supplies the
// evaluation function (a ktcore pass through the prepared cache) and decides
// relevance with the same predicate that drives cache invalidation.
package standing

import (
	"fmt"
	"net/url"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"roadsocial/client"
)

// Defaults for the tunable bounds.
const (
	// DefaultRingSize is the per-query event ring capacity — the
	// Last-Event-ID resume window.
	DefaultRingSize = 256
	// DefaultSubBuffer is the per-subscriber channel buffer; a subscriber
	// this far behind is dropped and marked lagged.
	DefaultSubBuffer = 32
)

// Config tunes a Registry.
type Config struct {
	// Dir is the sidecar directory; "" disables persistence (registrations
	// die with the process).
	Dir string
	// RingSize / SubBuffer override the defaults when > 0.
	RingSize  int
	SubBuffer int
	// Now substitutes the clock (tests); nil means time.Now.
	Now func() time.Time
}

// Registry holds every standing query of one server, by dataset.
type Registry struct {
	dir     string
	ringCap int
	subBuf  int
	now     func() time.Time

	mu       sync.Mutex
	datasets map[string]*dsState
	seq      uint64

	count    atomic.Int64 // registered queries (gauge)
	events   atomic.Int64 // events published
	lagged   atomic.Int64 // subscribers dropped for lagging
	evals    atomic.Int64 // per-query re-evaluations run
	notified atomic.Int64 // mutation batches that matched >= 1 query
}

// dsState is one dataset's slice of the registry.
type dsState struct {
	mu      sync.Mutex
	byID    map[string]*Entry
	order   []string
	sidecar *Sidecar

	// Coalescing re-evaluation state: mutations mark matched queries
	// pending; one eval pass drains the set, and marks arriving while it
	// runs are picked up by the same pass — a burst of batches costs one
	// re-evaluation at the latest version.
	pending map[string]bool
	running bool

	// dropped closes the state against registrations racing a teardown.
	dropped bool
}

// Entry is one registered query plus its live evaluation state.
type Entry struct {
	spec client.StandingQuery // immutable identity (ID, Dataset, Algo, Q, K, T, CreatedAt)
	hub  *Hub

	mu        sync.Mutex
	members   []int32 // last evaluated membership, sorted
	version   uint64
	evaluated bool
	// restored marks an entry rebuilt from the sidecar after a restart: its
	// first re-evaluation publishes unconditionally, so subscribers learn
	// the converged post-replay version even when the membership did not
	// move.
	restored bool
}

// Spec returns the immutable registered parameters.
func (e *Entry) Spec() client.StandingQuery { return e.spec }

// Hub returns the entry's event hub.
func (e *Entry) Hub() *Hub { return e.hub }

// State returns the last evaluated result (members is shared; do not
// mutate).
func (e *Entry) State() (members []int32, version uint64, evaluated bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.members, e.version, e.evaluated
}

// Resource renders the entry as the wire resource.
func (e *Entry) Resource() client.StandingQuery {
	q := e.spec
	e.mu.Lock()
	q.Version = e.version
	q.Members = append([]int32(nil), e.members...)
	q.NoCommunity = e.evaluated && len(e.members) == 0
	e.mu.Unlock()
	return q
}

// SetInitial records the registration-time evaluation without publishing an
// event (the register response itself carries the snapshot). It reports
// whether the state was applied: a mutation batch landing between Register
// and the initial evaluation can race a RunEvals pass past it (affects
// matches unevaluated entries), and the newer published result must not be
// regressed to the older registration-time snapshot — the diff against a
// rewound baseline would emit duplicate or contradictory deltas.
func (e *Entry) SetInitial(members []int32, version uint64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.evaluated {
		return false
	}
	e.members = members
	e.version = version
	e.evaluated = true
	return true
}

// NewRegistry creates a registry.
func NewRegistry(cfg Config) *Registry {
	r := &Registry{
		dir:      cfg.Dir,
		ringCap:  cfg.RingSize,
		subBuf:   cfg.SubBuffer,
		now:      cfg.Now,
		datasets: make(map[string]*dsState),
	}
	if r.ringCap <= 0 {
		r.ringCap = DefaultRingSize
	}
	if r.subBuf <= 0 {
		r.subBuf = DefaultSubBuffer
	}
	if r.now == nil {
		r.now = time.Now
	}
	return r
}

// SidecarPath returns the sidecar path for a dataset under dir, mirroring
// the mutation journal's naming next to it.
func SidecarPath(dir, dataset string) string {
	return filepath.Join(dir, url.PathEscape(dataset)+".squeries")
}

// OpenDataset makes the registry track a dataset, restoring persisted
// registrations from the sidecar (when a directory is configured) and
// returning them. Restored entries are flagged so their first re-evaluation
// publishes unconditionally. Idempotent: re-opening an open dataset returns
// nil restored queries.
func (r *Registry) OpenDataset(dataset string) ([]client.StandingQuery, error) {
	r.mu.Lock()
	if _, ok := r.datasets[dataset]; ok {
		r.mu.Unlock()
		return nil, nil
	}
	ds := &dsState{byID: make(map[string]*Entry), pending: make(map[string]bool)}
	r.datasets[dataset] = ds
	r.mu.Unlock()

	if r.dir == "" {
		return nil, nil
	}
	sc, restored, err := OpenSidecar(SidecarPath(r.dir, dataset))
	if err != nil {
		r.mu.Lock()
		delete(r.datasets, dataset)
		r.mu.Unlock()
		return nil, err
	}
	out := make([]client.StandingQuery, 0, len(restored))
	ds.mu.Lock()
	ds.sidecar = sc
	for _, rq := range restored {
		q := rq.Query
		e := &Entry{
			spec:      q,
			hub:       newHub(r.ringCap, r.subBuf, &r.events, &r.lagged),
			members:   q.Members,
			version:   q.Version,
			evaluated: q.Version > 0 || q.Members != nil || q.NoCommunity,
			restored:  true,
		}
		// Seed the event counter so post-restart events continue the
		// numbering subscribers acked pre-crash; a hub restarting at 0 would
		// mint IDs at or below their Last-Event-ID cursors and the SDK would
		// drop every new delta as a replay duplicate.
		e.hub.nextID = rq.LastEventID
		e.spec.Members = nil
		e.spec.Version = 0
		e.spec.NoCommunity = false
		ds.byID[q.ID] = e
		ds.order = append(ds.order, q.ID)
		r.bumpSeq(q.ID)
		r.count.Add(1)
		out = append(out, q)
	}
	ds.mu.Unlock()
	return out, nil
}

// bumpSeq advances the id sequence past a restored or pinned "sq-N" id so
// later registrations never collide.
func (r *Registry) bumpSeq(id string) {
	if n, ok := strings.CutPrefix(id, "sq-"); ok {
		if v, err := strconv.ParseUint(n, 10, 64); err == nil {
			r.mu.Lock()
			if v > r.seq {
				r.seq = v
			}
			r.mu.Unlock()
		}
	}
}

// CloseDataset stops tracking a dataset without touching subscribers or the
// on-disk sidecar — the lost-registration-race path, mirroring the mutation
// journal's close-without-remove.
func (r *Registry) CloseDataset(dataset string) {
	ds := r.take(dataset)
	if ds == nil {
		return
	}
	ds.mu.Lock()
	ds.dropped = true
	if ds.sidecar != nil {
		ds.sidecar.Close()
	}
	ds.mu.Unlock()
}

// DropDataset tears a dataset down: every query's subscribers get a terminal
// event and their streams close, and the sidecar is deleted from disk. For
// DELETE /v1/datasets/{name} and the delete leg of a dataset move.
func (r *Registry) DropDataset(dataset, reason string) {
	ds := r.take(dataset)
	if ds == nil {
		return
	}
	ds.mu.Lock()
	ds.dropped = true
	entries := make([]*Entry, 0, len(ds.byID))
	for _, e := range ds.byID {
		entries = append(entries, e)
	}
	ds.byID = map[string]*Entry{}
	ds.order = nil
	sc := ds.sidecar
	ds.sidecar = nil
	ds.mu.Unlock()
	for _, e := range entries {
		e.hub.Publish(client.QueryEvent{Terminal: true, Reason: reason})
		r.count.Add(-1)
	}
	if sc != nil {
		sc.Remove()
	}
}

// take removes and returns a dataset's state.
func (r *Registry) take(dataset string) *dsState {
	r.mu.Lock()
	defer r.mu.Unlock()
	ds := r.datasets[dataset]
	delete(r.datasets, dataset)
	return ds
}

func (r *Registry) dataset(name string) *dsState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.datasets[name]
}

// ErrUnknown reports operations on datasets or queries the registry does not
// hold.
type ErrUnknown struct{ What string }

func (e *ErrUnknown) Error() string { return "standing: unknown " + e.What }

// ErrExists reports a registration under an id that is already taken.
type ErrExists struct{ ID string }

func (e *ErrExists) Error() string { return "standing: query " + e.ID + " already registered" }

// Register adds a query. The spec's Dataset, Algo, Q, K, T must be
// validated by the caller; ID may be pre-assigned (router mirroring) or
// empty for a minted "sq-N". The registration is durable before Register
// returns.
func (r *Registry) Register(dataset string, spec client.StandingQuery) (*Entry, error) {
	ds := r.dataset(dataset)
	if ds == nil {
		return nil, &ErrUnknown{What: "dataset " + dataset}
	}
	if spec.ID == "" {
		r.mu.Lock()
		r.seq++
		spec.ID = "sq-" + strconv.FormatUint(r.seq, 10)
		r.mu.Unlock()
	} else {
		r.bumpSeq(spec.ID)
	}
	spec.Dataset = dataset
	spec.CreatedAt = r.now().UTC()
	spec.Members = nil
	spec.Version = 0
	spec.NoCommunity = false
	e := &Entry{spec: spec, hub: newHub(r.ringCap, r.subBuf, &r.events, &r.lagged)}

	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.dropped {
		// The dataset was dropped between lookup and lock.
		return nil, &ErrUnknown{What: "dataset " + dataset}
	}
	if _, dup := ds.byID[spec.ID]; dup {
		return nil, &ErrExists{ID: spec.ID}
	}
	if ds.sidecar != nil {
		if err := ds.sidecar.AppendPut(spec); err != nil {
			return nil, err
		}
	}
	ds.byID[spec.ID] = e
	ds.order = append(ds.order, spec.ID)
	r.count.Add(1)
	return e, nil
}

// Delete unregisters a query: its subscribers get a terminal event, the
// deletion is journaled, and the id is freed.
func (r *Registry) Delete(dataset, id, reason string) error {
	ds := r.dataset(dataset)
	if ds == nil {
		return &ErrUnknown{What: "dataset " + dataset}
	}
	ds.mu.Lock()
	e, ok := ds.byID[id]
	if !ok {
		ds.mu.Unlock()
		return &ErrUnknown{What: "query " + id}
	}
	delete(ds.byID, id)
	for i, qid := range ds.order {
		if qid == id {
			ds.order = append(ds.order[:i], ds.order[i+1:]...)
			break
		}
	}
	delete(ds.pending, id)
	var scErr error
	if ds.sidecar != nil {
		scErr = ds.sidecar.AppendDelete(id)
	}
	ds.mu.Unlock()
	e.hub.Publish(client.QueryEvent{Terminal: true, Reason: reason})
	r.count.Add(-1)
	return scErr
}

// Get returns one query's entry.
func (r *Registry) Get(dataset, id string) (*Entry, bool) {
	ds := r.dataset(dataset)
	if ds == nil {
		return nil, false
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	e, ok := ds.byID[id]
	return e, ok
}

// List returns a dataset's queries in registration order, with live state.
func (r *Registry) List(dataset string) []client.StandingQuery {
	ds := r.dataset(dataset)
	if ds == nil {
		return nil
	}
	ds.mu.Lock()
	entries := make([]*Entry, 0, len(ds.order))
	for _, id := range ds.order {
		if e, ok := ds.byID[id]; ok {
			entries = append(entries, e)
		}
	}
	ds.mu.Unlock()
	out := make([]client.StandingQuery, len(entries))
	for i, e := range entries {
		out[i] = e.Resource()
	}
	return out
}

// Notify matches an installed mutation batch against a dataset's queries.
// affects decides relevance from the query's registered parameters and last
// result. Matched queries are marked pending; startRun reports that the
// caller must start an eval pass (exactly one caller sees true per burst —
// later batches coalesce onto the running pass).
func (r *Registry) Notify(dataset string, affects func(*Entry) bool) (matched int, startRun bool) {
	ds := r.dataset(dataset)
	if ds == nil {
		return 0, false
	}
	ds.mu.Lock()
	entries := make([]*Entry, 0, len(ds.byID))
	for _, e := range ds.byID {
		entries = append(entries, e)
	}
	ds.mu.Unlock()

	var hit []*Entry
	for _, e := range entries {
		if affects(e) {
			hit = append(hit, e)
		}
	}
	if len(hit) == 0 {
		return 0, false
	}

	ds.mu.Lock()
	for _, e := range hit {
		if _, still := ds.byID[e.spec.ID]; still {
			ds.pending[e.spec.ID] = true
			matched++
		}
	}
	if matched > 0 && !ds.running {
		ds.running = true
		startRun = true
	}
	ds.mu.Unlock()
	if matched > 0 {
		r.notified.Add(1)
	}
	return matched, startRun
}

// MarkAllPending marks every query of a dataset pending (post-restart
// convergence pass). startRun as in Notify.
func (r *Registry) MarkAllPending(dataset string) (matched int, startRun bool) {
	return r.Notify(dataset, func(*Entry) bool { return true })
}

// AbandonRun releases the running flag after a failed eval-pass dispatch
// (e.g. a saturated job queue). Pending marks survive, so the next matching
// mutation redispatches; without this, a dispatch failure would leave the
// dataset believing a pass is running and never start another.
func (r *Registry) AbandonRun(dataset string) {
	ds := r.dataset(dataset)
	if ds == nil {
		return
	}
	ds.mu.Lock()
	ds.running = false
	ds.mu.Unlock()
}

// RecordInitial stores a registration-time evaluation on the entry (without
// publishing an event — the register response itself carries the snapshot)
// and journals it, so a restarted server diffs its first re-evaluation
// against the result this registration reported. When a mutation-driven eval
// pass already stored a newer result (the entry was visible to Notify before
// this call), both the entry and the sidecar keep that newer state.
func (r *Registry) RecordInitial(dataset string, e *Entry, members []int32, version uint64) {
	if !e.SetInitial(members, version) {
		return
	}
	ds := r.dataset(dataset)
	if ds == nil {
		return
	}
	ds.mu.Lock()
	sc := ds.sidecar
	ds.mu.Unlock()
	if sc != nil {
		_ = sc.AppendState(e.spec.ID, version, members, e.hub.LastID())
	}
}

// RunEvals drains a dataset's pending set: each pending query is re-evaluated
// via eval and, when the membership changed (or the entry was restored from a
// sidecar), a delta event is published and the new state journaled. The pass
// loops until the pending set is empty, so marks arriving mid-pass coalesce
// into it; the running flag is released before returning. Returns the number
// of evaluations run.
func (r *Registry) RunEvals(dataset string, eval func(spec client.StandingQuery) (members []int32, version uint64, err error), onErr func(id string, err error)) int {
	ds := r.dataset(dataset)
	if ds == nil {
		return 0
	}
	evals := 0
	for {
		ds.mu.Lock()
		if len(ds.pending) == 0 {
			ds.running = false
			ds.mu.Unlock()
			return evals
		}
		batch := make([]*Entry, 0, len(ds.pending))
		for id := range ds.pending {
			if e, ok := ds.byID[id]; ok {
				batch = append(batch, e)
			}
		}
		ds.pending = make(map[string]bool)
		sc := ds.sidecar
		ds.mu.Unlock()

		sort.Slice(batch, func(i, j int) bool { return batch[i].spec.ID < batch[j].spec.ID })
		for _, e := range batch {
			members, version, err := eval(e.spec)
			if err != nil {
				if onErr != nil {
					onErr(e.spec.ID, err)
				}
				continue
			}
			r.evals.Add(1)
			evals++
			e.mu.Lock()
			joined, left := diffMembers(e.members, members)
			publish := len(joined) > 0 || len(left) > 0 || !e.evaluated || e.restored
			e.members = members
			e.version = version
			e.evaluated = true
			e.restored = false
			e.mu.Unlock()
			if !publish {
				continue
			}
			evID := e.hub.Publish(client.QueryEvent{
				Version:        version,
				Joined:         joined,
				Left:           left,
				MembersChanged: len(joined) > 0 || len(left) > 0,
			})
			if evID == 0 {
				// The hub closed under us: the query was deleted mid-pass and
				// its subscribers already got the terminal event. Nothing to
				// journal for a dead id.
				continue
			}
			if sc != nil {
				if err := sc.AppendState(e.spec.ID, version, members, evID); err != nil && onErr != nil {
					onErr(e.spec.ID, err)
				}
			}
		}
	}
}

// diffMembers computes the delta between two sorted member sets.
func diffMembers(old, new []int32) (joined, left []int32) {
	i, j := 0, 0
	for i < len(old) && j < len(new) {
		switch {
		case old[i] == new[j]:
			i++
			j++
		case old[i] < new[j]:
			left = append(left, old[i])
			i++
		default:
			joined = append(joined, new[j])
			j++
		}
	}
	left = append(left, old[i:]...)
	joined = append(joined, new[j:]...)
	return joined, left
}

// Counters for /v1/stats and /metrics.
func (r *Registry) Count() int64    { return r.count.Load() }
func (r *Registry) Events() int64   { return r.events.Load() }
func (r *Registry) Lagged() int64   { return r.lagged.Load() }
func (r *Registry) Evals() int64    { return r.evals.Load() }
func (r *Registry) Notified() int64 { return r.notified.Load() }

// String implements fmt.Stringer for debugging.
func (r *Registry) String() string {
	return fmt.Sprintf("standing.Registry{queries: %d}", r.Count())
}
