// Package shard is the horizontal-scaling tier above the MAC query service:
// it partitions datasets across multiple service instances — in-process
// shards or remote macserver processes — by consistent hashing on the
// dataset id, in the hierarchical-partitioning spirit of the G-tree road
// index (partition once, route cheaply ever after).
//
// A Router owns a fixed set of Backends and a hash ring with virtual nodes.
// Dataset-scoped requests (/v1/datasets/{name}/...) are routed to the shard
// that owns the dataset named in the URL — no body inspection at all.
// /v1/healthz and /v1/stats fan out to every shard and aggregate; /v1/batch
// splits by owning shard, forwards the sub-batches concurrently, and merges
// the per-item results in order. A shard that cannot be reached answers its
// datasets' requests with 502 and shows up as down in the aggregated health
// and stats — the other shards keep serving.
//
// Ownership is dynamic: the ring gives every dataset a default owner, and
// the dataset lifecycle (POST/DELETE /v1/datasets/{name}) maintains an
// assignment table layered over it. A create is forwarded to the ring
// owner — or to an explicitly pinned shard when the spec names one — and
// recorded; a delete erases the record. The table optionally persists to
// disk (PersistAssignments / macserver -assignments-file), so a router
// restart keeps routing moved datasets to where they actually live, and it
// re-syncs from a previously-down peer the moment a probe sees it healthy
// again.
//
// Moves are first-class: POST /v1/datasets/{name}/move answers 202 with a
// job resource that copies the dataset to the target shard from a snapshot
// while the source keeps serving, flips the assignment atomically, waits
// for requests already routed to the source to drain, then deletes the
// source copy — a concurrently-querying client sees no 404/502 window at
// any point (see move.go).
//
// Replication layers fault tolerance on top (see replica.go): a dataset's
// assignment is an ordered replica set — primary first, then followers on
// distinct ring owners found by walking the ring past the primary. Reads
// route to the primary and fail over in-router to the next healthy replica
// on a connection error or 502, so a single backend death costs zero non-2xx
// answers; control-plane writes go through the primary and fan to followers
// as replicate jobs that stream a snapshot shard-to-shard. Replicate and
// move jobs are journaled durably next to the assignments file (journal.go),
// so a restarted router resumes or explicitly fails them instead of
// silently forgetting in-flight work.
//
// The Router holds no query state of its own: all caching, admission
// control, and deadline handling stay in the per-shard service tier, so the
// routing layer adds one hash per request.
package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"roadsocial/client"
	"roadsocial/internal/durable"
	"roadsocial/internal/service"
)

// ErrShardDown reports that the shard owning the requested dataset could
// not be reached (HTTP 502).
var ErrShardDown = errors.New("shard: owning shard unreachable")

// Backend is one service instance the router can own datasets on: either a
// Local wrapper around an in-process service.Server or a Remote proxy to a
// macserver base URL. Implementations must be safe for concurrent use.
type Backend interface {
	// Name identifies the shard in health and stats payloads; it is also
	// the shard's identity on the hash ring.
	Name() string
	// ServeAPI forwards one /v1 API request to the shard.
	ServeAPI(w http.ResponseWriter, r *http.Request)
	// Stats snapshots the shard's service counters; an error marks the
	// shard down.
	Stats() (service.Stats, error)
	// Datasets lists the shard's registered datasets; an error marks the
	// shard down.
	Datasets() ([]string, error)
}

// Local is an in-process shard: a service.Server sharing the router's
// process.
type Local struct {
	name string
	srv  *service.Server
	h    http.Handler
}

// NewLocal wraps an in-process server as a shard backend.
func NewLocal(name string, srv *service.Server) *Local {
	return &Local{name: name, srv: srv, h: srv.Handler()}
}

// Name implements Backend.
func (b *Local) Name() string { return b.name }

// Server exposes the wrapped server (dataset registration happens on it).
func (b *Local) Server() *service.Server { return b.srv }

// ServeAPI implements Backend by dispatching to the server's handler.
func (b *Local) ServeAPI(w http.ResponseWriter, r *http.Request) { b.h.ServeHTTP(w, r) }

// Stats implements Backend.
func (b *Local) Stats() (service.Stats, error) { return b.srv.Stats(), nil }

// Datasets implements Backend.
func (b *Local) Datasets() ([]string, error) { return b.srv.Datasets(), nil }

// Remote is a shard served by another macserver process, reached over HTTP.
// Typed probes (stats, health) go through the public client SDK; the query
// path streams the request through verbatim.
type Remote struct {
	name  string
	base  string // e.g. "http://10.0.0.7:8080", no trailing slash
	hc    *http.Client
	api   *client.Client
	token string
}

// RemoteOption configures a Remote backend.
type RemoteOption func(*Remote)

// WithToken makes the backend attach "Authorization: Bearer <token>" to
// every call it originates (probes, and proxied requests that do not
// already carry a token) — for peer macservers started with -auth-token.
func WithToken(token string) RemoteOption { return func(b *Remote) { b.token = token } }

// NewRemote creates a proxy backend for a macserver at baseURL. A nil
// client selects one with no overall timeout: the per-request deadline
// lives in the owning shard (which may allow minutes), and a proxied
// request is additionally canceled through its own context when the
// originating client disconnects. Health and stats probes use a short
// per-call timeout of their own.
func NewRemote(name, baseURL string, hc *http.Client, opts ...RemoteOption) *Remote {
	if hc == nil {
		hc = &http.Client{}
	}
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	b := &Remote{name: name, base: baseURL, hc: hc}
	for _, o := range opts {
		o(b)
	}
	// Probes are health checks: they must observe a down shard, not paper
	// over it, so the SDK-level 502 retry is disabled.
	b.api = client.New(baseURL, client.WithHTTPClient(hc), client.WithToken(b.token), client.WithRetries(0))
	return b
}

// probeTimeout bounds the health and stats fan-out calls to a down shard.
const probeTimeout = 10 * time.Second

// Name implements Backend.
func (b *Remote) Name() string { return b.name }

// ServeAPI implements Backend by replaying the request against the remote
// shard and copying its response back verbatim. Transport failures answer
// 502: the dataset's owner is down, which is not the client's fault and not
// this process's either.
func (b *Remote) ServeAPI(w http.ResponseWriter, r *http.Request) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, b.base+r.URL.EscapedPath(), r.Body)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if auth := r.Header.Get("Authorization"); auth != "" {
		req.Header.Set("Authorization", auth)
	} else if b.token != "" {
		req.Header.Set("Authorization", "Bearer "+b.token)
	}
	if rid := r.Header.Get(client.HeaderRequestID); rid != "" {
		// Propagate the request ID so the leaf's log record carries the same
		// ID the edge minted — one grep follows the request across tiers.
		req.Header.Set(client.HeaderRequestID, rid)
	}
	if lid := r.Header.Get(client.HeaderLastEventID); lid != "" {
		// The SSE resume cursor must survive the proxy hop, or a subscriber
		// reconnecting after a failover silently loses its ring replay.
		req.Header.Set(client.HeaderLastEventID, lid)
	}
	if r.Header.Get(service.HeaderInternal) != "" {
		// Router-originated requests (standing-query registration mirrors)
		// carry the internal marker that lets the leaf accept a pinned query
		// ID. Client-supplied copies never reach here: the routing layer
		// strips the header from inbound requests before forwarding.
		req.Header.Set(service.HeaderInternal, "1")
	}
	resp, err := b.hc.Do(req)
	if err != nil {
		writeError(w, http.StatusBadGateway, fmt.Errorf("%w: %s (%v)", ErrShardDown, b.name, err))
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	var dst io.Writer = w
	if f, ok := w.(http.Flusher); ok && strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		// An SSE stream proxied through the router must reach the subscriber
		// event by event, not when some buffer fills: flush the headers now
		// and after every chunk the upstream sends.
		f.Flush()
		dst = flushWriter{w: w, f: f}
	}
	if _, err := io.Copy(dst, resp.Body); err != nil {
		// The upstream connection died mid-body. The status line is already
		// out, so nothing can be un-sent here — but a failover-aware caller
		// recording the response must learn the body is truncated, or it
		// would replay a partial 200 to the client as if it were complete.
		if sink, ok := w.(interface{ proxyFailed(error) }); ok {
			sink.proxyFailed(err)
		}
	}
}

// flushWriter flushes after every write, so proxied event streams reach the
// subscriber as the upstream emits them.
type flushWriter struct {
	w io.Writer
	f http.Flusher
}

func (fw flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	fw.f.Flush()
	return n, err
}

// Stats implements Backend through the SDK, which normalizes the leaf
// service shape and the router shape (a peer may itself be a routing tier)
// to one struct.
func (b *Remote) Stats() (service.Stats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	st, err := b.api.Stats(ctx)
	if err != nil {
		return service.Stats{}, fmt.Errorf("%w: %s (%v)", ErrShardDown, b.name, err)
	}
	return *st, nil
}

// Datasets implements Backend via the remote health endpoint; the SDK
// unions per-shard dataset lists when the peer is itself a router.
func (b *Remote) Datasets() ([]string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	h, err := b.api.Health(ctx)
	if err != nil {
		return nil, fmt.Errorf("%w: %s (%v)", ErrShardDown, b.name, err)
	}
	sort.Strings(h.Datasets)
	return h.Datasets, nil
}

// defaultVirtualNodes spreads each backend over this many ring points, which
// keeps the dataset load imbalance across shards within a few percent.
const defaultVirtualNodes = 64

// ringPoint is one virtual node: a hash position owned by a backend.
type ringPoint struct {
	hash uint64
	idx  int
}

// Router partitions datasets over backends by consistent hashing, layers a
// mutable dataset-assignment table over the ring (maintained by the dataset
// lifecycle and the move jobs), and serves the shard-aware /v1 API. Safe
// for concurrent use.
type Router struct {
	backends []Backend
	byName   map[string]int
	ring     []ringPoint
	jobs     *service.Jobs

	// replication is the default replica count for datasets created without
	// an explicit spec.Replication. Set through SetReplication before the
	// router serves traffic; 1 (the zero-config default) means no followers.
	replication int

	// down[i] remembers that backend i failed its last probe (or answered a
	// read with a transport-level 502); the first successful probe afterwards
	// re-syncs its datasets into the assignment table and re-syncs replicas
	// (a peer that restarted during a router outage would otherwise silently
	// lose its off-ring datasets from the table, and a restarted-empty peer
	// needs its follower copies restored).
	down []atomic.Bool

	// probes[i] is backend i's probe bookkeeping for the health payload:
	// when it was last probed and how many consecutive probes have failed.
	probes []probeState

	// failovers counts reads answered by a non-primary replica after the
	// primary failed mid-request; drainTimeouts counts moves whose source
	// drain hit the fail-safe; replicaSyncs counts replicate jobs submitted
	// to copy datasets onto followers. All surface in /v1/stats totals and
	// as router-level /metrics counters.
	failovers     atomic.Int64
	drainTimeouts atomic.Int64
	replicaSyncs  atomic.Int64
	// staleMarked counts replica copies ever marked stale by a failed
	// follower mutation forward — a monotone divergence signal for alerting,
	// alongside the current stale set in Stats.StaleReplicas.
	staleMarked atomic.Int64

	journal *jobJournal // nil until EnableJobJournal

	mu sync.RWMutex
	// assign maps dataset -> ordered replica set (primary first). A dataset
	// absent from the table lives unreplicated on its ring owner.
	assign map[string][]int
	// assignGen increments on every assignment flip (pin/unpin/cutover).
	// Background reconciles snapshot it before fanning out and abort their
	// re-pins when it moved meanwhile: their dataset lists are stale the
	// moment any assignment flips, and acting on them could resurrect a pin
	// a concurrent move's cutover just replaced.
	assignGen uint64
	moving    map[string]bool
	// writes counts each dataset's mutations and deletes in flight. A write
	// registers in the same critical section that checks moving, and a move
	// waits for the count to reach zero before it copies, so no write can
	// land on the source after the copy.
	writes  map[string]int
	syncing map[string]bool // datasets with a replicate job in flight
	// stale maps dataset -> backend indices whose replica copy may have
	// diverged from the primary (a follower mutation forward failed). A
	// stale replica is excluded from read failover, skipped by further
	// mutation forwards, and never rotated into the primary slot; only a
	// snapshot re-copy (replicate job) clears the mark — a later mutation
	// landing cleanly on a diverged copy would not heal the divergence.
	stale       map[string]map[int]bool
	persistPath string // when non-empty, assign is mirrored to this file
	// inflight counts requests routed to (dataset, backend) that have not
	// returned yet; a move drains the source's count after the cutover so
	// the delete can never race a request routed before the flip.
	inflight map[routeKey]*atomic.Int64
}

// probeState is one backend's probe bookkeeping (atomics: probes fan out
// concurrently).
type probeState struct {
	lastUnixNano atomic.Int64 // 0 = never probed
	consecFails  atomic.Int64
}

// routeKey identifies one (dataset, backend) routing decision.
type routeKey struct {
	name string
	idx  int
}

// NewRouter builds a router over the backends with vnodes virtual nodes per
// backend (<= 0 selects the default). Backend names must be unique: the
// name is the shard's position generator on the ring, so two shards sharing
// a name would own identical points.
func NewRouter(backends []Backend, vnodes int) (*Router, error) {
	if len(backends) == 0 {
		return nil, errors.New("shard: no backends")
	}
	if vnodes <= 0 {
		vnodes = defaultVirtualNodes
	}
	byName := make(map[string]int, len(backends))
	ring := make([]ringPoint, 0, len(backends)*vnodes)
	for i, b := range backends {
		if _, dup := byName[b.Name()]; dup {
			return nil, fmt.Errorf("shard: duplicate backend name %q", b.Name())
		}
		byName[b.Name()] = i
		for v := 0; v < vnodes; v++ {
			ring = append(ring, ringPoint{hash: ringHash(b.Name() + "#" + strconv.Itoa(v)), idx: i})
		}
	}
	sort.Slice(ring, func(i, j int) bool {
		if ring[i].hash != ring[j].hash {
			return ring[i].hash < ring[j].hash
		}
		return ring[i].idx < ring[j].idx
	})
	return &Router{
		backends:    backends,
		byName:      byName,
		ring:        ring,
		jobs:        service.NewJobs(),
		replication: 1,
		down:        make([]atomic.Bool, len(backends)),
		probes:      make([]probeState, len(backends)),
		assign:      make(map[string][]int),
		moving:      make(map[string]bool),
		writes:      make(map[string]int),
		syncing:     make(map[string]bool),
		stale:       make(map[string]map[int]bool),
		inflight:    make(map[routeKey]*atomic.Int64),
	}, nil
}

// SetReplication sets the default replica count for datasets whose spec does
// not choose one, clamped to [1, number of backends]. Call before serving
// traffic (cmd/macserver wires -replication here); it does not retrofit
// replicas onto datasets already assigned.
func (rt *Router) SetReplication(n int) {
	if n < 1 {
		n = 1
	}
	if n > len(rt.backends) {
		n = len(rt.backends)
	}
	rt.mu.Lock()
	rt.replication = n
	rt.mu.Unlock()
}

// ringHash is 64-bit FNV-1a followed by a murmur-style finalizer: stable
// across processes and Go versions, so a router fleet and the loader that
// partitioned the datasets always agree on ownership. The finalizer
// matters — raw FNV of short, similar strings ("shard-0#1", "shard-0#2")
// clusters in a narrow band of the 64-bit space, which would collapse the
// ring onto one shard.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// ringOwnerIndex returns the ring's default owner for a dataset: the first
// ring point at or clockwise after the dataset's hash.
func (rt *Router) ringOwnerIndex(dataset string) int {
	h := ringHash(dataset)
	i := sort.Search(len(rt.ring), func(i int) bool { return rt.ring[i].hash >= h })
	if i == len(rt.ring) {
		i = 0
	}
	return rt.ring[i].idx
}

// ringReplicas returns up to n distinct backends for a dataset by walking
// the ring clockwise from the dataset's hash: the first distinct owner is
// the ring owner, later ones skip vnodes of backends already chosen. The
// walk is deterministic, so every router over the same backends computes the
// same replica placement.
func (rt *Router) ringReplicas(dataset string, n int) []int {
	if n > len(rt.backends) {
		n = len(rt.backends)
	}
	if n < 1 {
		n = 1
	}
	h := ringHash(dataset)
	start := sort.Search(len(rt.ring), func(i int) bool { return rt.ring[i].hash >= h })
	out := make([]int, 0, n)
	seen := make(map[int]bool, n)
	for j := 0; j < len(rt.ring) && len(out) < n; j++ {
		p := rt.ring[(start+j)%len(rt.ring)]
		if !seen[p.idx] {
			seen[p.idx] = true
			out = append(out, p.idx)
		}
	}
	return out
}

// OwnerIndex returns the index of the backend owning a dataset (the replica
// set's primary): the pinned assignment when the lifecycle recorded one,
// otherwise the ring owner.
func (rt *Router) OwnerIndex(dataset string) int {
	rt.mu.RLock()
	set, pinned := rt.assign[dataset]
	rt.mu.RUnlock()
	if pinned {
		return set[0]
	}
	return rt.ringOwnerIndex(dataset)
}

// replicaSetFor returns the dataset's ordered replica set, primary first:
// the recorded assignment when the lifecycle pinned one, otherwise a ring
// walk at the router's default replication. The result is a copy.
func (rt *Router) replicaSetFor(dataset string) []int {
	rt.mu.RLock()
	set, pinned := rt.assign[dataset]
	if pinned {
		set = append([]int(nil), set...)
	}
	n := rt.replication
	rt.mu.RUnlock()
	if pinned {
		return set
	}
	return rt.ringReplicas(dataset, n)
}

// readCandidates orders a dataset's replicas for the read path: the replica
// set with down-marked backends moved to the back (order otherwise
// preserved, so a healthy fleet always reads from the primary), and
// stale-marked replicas excluded outright — a diverged copy answering a
// failover read would silently flip the client between histories. A
// down-marked backend stays a candidate (the flag is a hint, not a
// verdict); a stale mark is a verdict, cleared only by a re-sync. Only if
// every member is stale does the set pass through unfiltered, so the route
// still answers something rather than nothing.
func (rt *Router) readCandidates(dataset string) []int {
	set := rt.replicaSetFor(dataset)
	if len(set) == 1 {
		return set
	}
	healthy := make([]int, 0, len(set))
	var unhealthy []int
	for _, i := range set {
		switch {
		case rt.isReplicaStale(dataset, i):
		case rt.down[i].Load():
			unhealthy = append(unhealthy, i)
		default:
			healthy = append(healthy, i)
		}
	}
	out := append(healthy, unhealthy...)
	if len(out) == 0 {
		return set
	}
	return out
}

// markReplicaStale records that backend idx's copy of the dataset may have
// diverged from the primary. Idempotent; the counter moves once per mark.
func (rt *Router) markReplicaStale(dataset string, idx int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	m := rt.stale[dataset]
	if m == nil {
		m = make(map[int]bool)
		rt.stale[dataset] = m
	}
	if !m[idx] {
		m[idx] = true
		rt.staleMarked.Add(1)
	}
}

// clearReplicaStale removes a stale mark after a successful snapshot
// re-copy brought the replica back in line with the primary.
func (rt *Router) clearReplicaStale(dataset string, idx int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if m := rt.stale[dataset]; m != nil {
		delete(m, idx)
		if len(m) == 0 {
			delete(rt.stale, dataset)
		}
	}
}

// isReplicaStale reports whether backend idx's copy of the dataset carries
// a stale mark.
func (rt *Router) isReplicaStale(dataset string, idx int) bool {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.stale[dataset][idx]
}

// staleReplicaNames snapshots the stale set as dataset -> shard names for
// the stats payload; nil when nothing is marked.
func (rt *Router) staleReplicaNames() map[string][]string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if len(rt.stale) == 0 {
		return nil
	}
	out := make(map[string][]string, len(rt.stale))
	for ds, m := range rt.stale {
		names := make([]string, 0, len(m))
		for idx := range m {
			names = append(names, rt.backends[idx].Name())
		}
		sort.Strings(names)
		out[ds] = names
	}
	return out
}

// setReplicasLocked records a dataset's ordered replica set (primary first)
// in the assignment table. A single-member set equal to the ring owner needs
// no record; everything else is pinned. When persistence is enabled, the
// table is mirrored to disk in the same critical section — the flip a client
// observes and the flip a restart recovers are the same write. Every call
// bumps the assignment generation (see assignGen). Caller holds rt.mu.
func (rt *Router) setReplicasLocked(dataset string, set []int) {
	rt.assignGen++
	if len(set) == 1 && set[0] == rt.ringOwnerIndex(dataset) {
		delete(rt.assign, dataset)
	} else {
		rt.assign[dataset] = append([]int(nil), set...)
	}
	rt.saveAssignmentsLocked()
}

// pinSet records a dataset's ordered replica set under the lock.
func (rt *Router) pinSet(dataset string, set []int) {
	rt.mu.Lock()
	rt.setReplicasLocked(dataset, set)
	rt.mu.Unlock()
}

// pin records a single-owner assignment (no followers).
func (rt *Router) pin(dataset string, idx int) { rt.pinSet(dataset, []int{idx}) }

func (rt *Router) unpin(dataset string) {
	rt.mu.Lock()
	rt.assignGen++
	delete(rt.assign, dataset)
	delete(rt.stale, dataset) // the dataset is gone; so is its divergence
	rt.saveAssignmentsLocked()
	rt.mu.Unlock()
}

// trackRoute registers a request routed to (dataset, idx) in the in-flight
// table; the returned done must be called when the forwarded request
// settles. Moves use the table to drain the source after a cutover — and
// because failover attempts register against the backend they actually hit,
// the drain count stays exact under failover too.
func (rt *Router) trackRoute(dataset string, idx int) (done func()) {
	key := routeKey{name: dataset, idx: idx}
	rt.mu.Lock()
	ctr := rt.inflight[key]
	if ctr == nil {
		ctr = new(atomic.Int64)
		rt.inflight[key] = ctr
	}
	ctr.Add(1)
	rt.mu.Unlock()
	return func() {
		if ctr.Add(-1) != 0 {
			return
		}
		// Last one out removes the entry — the table tracks client-supplied
		// names, so it must not grow with every dataset ever asked about.
		// The re-check under the lock keeps a concurrent trackRoute (which
		// may have incremented this same counter) safe.
		rt.mu.Lock()
		if cur, ok := rt.inflight[key]; ok && cur == ctr && cur.Load() == 0 {
			delete(rt.inflight, key)
		}
		rt.mu.Unlock()
	}
}

// routedInFlight reports how many requests routed to (dataset, idx) are
// still outstanding.
func (rt *Router) routedInFlight(dataset string, idx int) int64 {
	rt.mu.RLock()
	ctr := rt.inflight[routeKey{name: dataset, idx: idx}]
	rt.mu.RUnlock()
	if ctr == nil {
		return 0
	}
	return ctr.Load()
}

// SyncAssignments reconciles the assignment table with the backends'
// actual dataset lists. A routing tier calls this at startup
// (cmd/macserver -peers does) — otherwise datasets moved before the
// restart would route to their ring owner and 404 there — and again
// whenever a probe sees a previously-down backend healthy.
//
// The reconcile rule is deliberately conservative: a dataset whose
// *current* owner (assignment or ring) actually holds it is left alone —
// sync recovers lost knowledge, it never overrides working routing. Only
// a dataset whose current owner does not hold it is re-pinned, to the
// ring owner if that shard holds a copy, else the lowest-indexed holder
// (deterministic across concurrent syncs); followers in the replica set are
// preserved. A stale duplicate copy — e.g. one retained by a move whose
// drain timed out — therefore can never steal routing from the live copy.
// Unreachable backends are skipped and marked down; datasets mid-move are
// left to the move job. It returns the number of re-pins applied.
//
// The dataset lists are a snapshot: any assignment flip that lands while
// they are being gathered (a move's cutover, a concurrent create) makes
// conclusions drawn from them stale — a cutover could complete between the
// fetch and the re-pin, and the re-pin would resurrect the source the move
// just drained. The assignment generation guards that window: the whole
// batch of re-pins applies only if no flip happened since the fetch began,
// and is otherwise discarded (the next probe interval retries with fresh
// lists).
func (rt *Router) SyncAssignments() int {
	rt.mu.RLock()
	startGen := rt.assignGen
	rt.mu.RUnlock()

	lists := make([][]string, len(rt.backends))
	rt.fanOut(func(i int, b Backend) {
		ds, err := b.Datasets()
		rt.recordProbe(i, err)
		rt.down[i].Store(err != nil)
		if err != nil {
			return
		}
		lists[i] = ds
	})

	holders := make(map[string][]int) // dataset -> backend indices holding it
	for i, ds := range lists {
		for _, d := range ds {
			holders[d] = append(holders[d], i)
		}
	}
	type rePin struct {
		name string
		set  []int
	}
	var plans []rePin
	for d, on := range holders {
		if rt.isMoving(d) {
			continue
		}
		set := rt.replicaSetFor(d)
		cur := set[0]
		if lists[cur] != nil && contains(lists[cur], d) {
			continue // current routing works; never override it
		}
		if rt.down[cur].Load() && lists[cur] == nil {
			// The owner is unreachable, not provably empty: re-pinning now
			// could strand the authoritative copy when it comes back.
			continue
		}
		best := on[0]
		ring := rt.ringOwnerIndex(d)
		if contains(lists[ring], d) {
			best = ring
		}
		if best == cur {
			continue
		}
		// Promote the holder to primary, keep the other members (including
		// the demoted ex-primary) as followers so a later replica sync can
		// restore their copies.
		ns := []int{best}
		for _, i := range set {
			if i != best {
				ns = append(ns, i)
			}
		}
		plans = append(plans, rePin{name: d, set: ns})
	}

	pins := 0
	rt.mu.Lock()
	if rt.assignGen == startGen {
		for _, p := range plans {
			if rt.moving[p.name] {
				continue
			}
			rt.setReplicasLocked(p.name, p.set)
			pins++
		}
	}
	rt.mu.Unlock()
	return pins
}

func contains(ds []string, name string) bool {
	for _, d := range ds {
		if d == name {
			return true
		}
	}
	return false
}

// recordProbe updates backend i's probe bookkeeping (timestamp and
// consecutive-failure count) without touching the down flag or triggering
// reconciles — every probe path feeds it.
func (rt *Router) recordProbe(i int, err error) {
	rt.probes[i].lastUnixNano.Store(time.Now().UnixNano())
	if err != nil {
		rt.probes[i].consecFails.Add(1)
	} else {
		rt.probes[i].consecFails.Store(0)
	}
}

// noteProbe records a probe outcome for backend i. On a down→up transition
// a full reconcile runs: a peer that came back after an outage may hold
// off-ring datasets this router has never seen pinned, and the reconcile
// (unlike a single-backend view) knows whether the current owner of each
// one actually holds it. Replicas are re-synced too: a peer that restarted
// empty needs its follower copies streamed back.
func (rt *Router) noteProbe(i int, err error) {
	rt.recordProbe(i, err)
	if err != nil {
		rt.down[i].Store(true)
		return
	}
	if rt.down[i].Swap(false) {
		rt.SyncAssignments()
		rt.SyncReplicas()
	}
}

// markBackendDown flags a backend the read path just saw fail at the
// transport level, so later reads prefer its peers until a probe sees it
// healthy again.
func (rt *Router) markBackendDown(i int) { rt.down[i].Store(true) }

// assignmentsFile is the on-disk form of the assignment table: dataset →
// ordered replica set of backend names, primary first (names survive
// reordering of the backend slice across restarts; indexes would not).
type assignmentsFile struct {
	Version  int                 `json:"version"`
	Replicas map[string][]string `json:"replicas,omitempty"`
}

// PersistAssignments enables assignment-table persistence: the file at
// path (if present) is loaded into the table — entries naming unknown
// backends are dropped — and every later pin/unpin/move rewrites it
// crash-atomically (durable.WriteFile). Call before serving traffic. It
// returns how many assignments the file contributed.
func (rt *Router) PersistAssignments(path string) (int, error) {
	data, err := os.ReadFile(path)
	loaded := 0
	if err == nil {
		var af assignmentsFile
		if err := json.Unmarshal(data, &af); err != nil {
			return 0, fmt.Errorf("shard: assignments file %s: %w", path, err)
		}
		rt.mu.Lock()
		for ds, names := range af.Replicas {
			var set []int
			for _, name := range names {
				if idx, ok := rt.byName[name]; ok && !containsInt(set, idx) {
					set = append(set, idx)
				}
			}
			if len(set) == 0 || (len(set) == 1 && set[0] == rt.ringOwnerIndex(ds)) {
				continue
			}
			rt.assign[ds] = set
			loaded++
		}
		rt.mu.Unlock()
	} else if !errors.Is(err, os.ErrNotExist) {
		return 0, err
	}
	rt.mu.Lock()
	rt.persistPath = path
	rt.saveAssignmentsLocked()
	rt.mu.Unlock()
	return loaded, nil
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// saveAssignmentsLocked mirrors the table to disk when persistence is on.
// Caller holds rt.mu. Write failures are logged, not returned: routing must
// not start failing because a disk did, and the next mutation retries.
func (rt *Router) saveAssignmentsLocked() {
	if rt.persistPath == "" {
		return
	}
	af := assignmentsFile{Version: 2, Replicas: make(map[string][]string, len(rt.assign))}
	for ds, set := range rt.assign {
		names := make([]string, len(set))
		for i, idx := range set {
			names[i] = rt.backends[idx].Name()
		}
		af.Replicas[ds] = names
	}
	data, err := json.MarshalIndent(af, "", "  ")
	if err == nil {
		err = durable.WriteFile(rt.persistPath, func(w io.Writer) error {
			_, err := w.Write(data)
			return err
		})
	}
	if err != nil {
		slog.Warn("assignment table not persisted; the next change retries", "path", rt.persistPath, "err", err)
	}
}

// Handler returns the shard-aware HTTP API: dataset-scoped routes go to the
// owning shard by URL, batch splits across shards, healthz/stats fan out to
// every shard, and the control plane — async creates, snapshot
// export/import, and moves — runs as router-level job resources.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/datasets/{name}/search", rt.routeDataset)
	mux.HandleFunc("POST /v1/datasets/{name}/ktcore", rt.routeDataset)
	mux.HandleFunc("GET /v1/datasets/{name}/hotkeys", rt.routeDataset)
	mux.HandleFunc("POST /v1/datasets/{name}/edges", rt.routeMutate)
	mux.HandleFunc("DELETE /v1/datasets/{name}/edges", rt.routeMutate)
	mux.HandleFunc("GET /v1/datasets/{name}/snapshot", rt.routeSnapshotGet)
	mux.HandleFunc("POST /v1/datasets/{name}/queries", rt.serveCreateQuery)
	mux.HandleFunc("GET /v1/datasets/{name}/queries", rt.routeDataset)
	mux.HandleFunc("GET /v1/datasets/{name}/queries/{id}", rt.routeDataset)
	mux.HandleFunc("DELETE /v1/datasets/{name}/queries/{id}", rt.serveDeleteQuery)
	mux.HandleFunc("GET /v1/datasets/{name}/queries/{id}/events", rt.routeQueryEvents)
	mux.HandleFunc("PUT /v1/datasets/{name}/snapshot", rt.serveRestoreSnapshot)
	mux.HandleFunc("POST /v1/datasets/{name}/move", rt.serveMoveDataset)
	mux.HandleFunc("POST /v1/datasets/{name}", rt.serveCreateDataset)
	mux.HandleFunc("DELETE /v1/datasets/{name}", rt.serveDeleteDataset)
	mux.HandleFunc("GET /v1/jobs/{id}", rt.serveGetJob)
	mux.HandleFunc("GET /v1/jobs", rt.serveListJobs)
	mux.HandleFunc("DELETE /v1/jobs/{id}", rt.serveCancelJob)
	mux.HandleFunc("POST /v1/batch", rt.serveBatch)
	mux.HandleFunc("GET /v1/healthz", rt.serveHealthz)
	mux.HandleFunc("GET /v1/stats", rt.serveStats)
	mux.HandleFunc("GET /metrics", rt.serveMetrics)
	return mux
}

// routeDataset hands a dataset-scoped read (search, ktcore, hotkeys) to the
// dataset's primary, failing over in-router to the next replica when the
// primary fails at the transport level. The body is buffered (bounded by
// MaxRequestBody) so a failover attempt can replay it.
func (rt *Router) routeDataset(w http.ResponseWriter, r *http.Request) {
	var body []byte
	if r.Body != nil && r.Method != http.MethodGet {
		var err error
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, service.MaxRequestBody))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
	}
	rt.routeRead(w, r, r.PathValue("name"), body)
}

// routeMutate hands a mutation batch to the dataset's primary and, on
// success, replays the same body against each follower so replica copies
// converge. Unlike reads there is no failover — a write answered by a
// follower while the primary is alive would fork the dataset's history —
// and a mid-move dataset rejects writes outright (the snapshot being copied
// would silently miss them).
func (rt *Router) routeMutate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	end, ok := rt.beginWrite(name)
	if !ok {
		writeError(w, http.StatusConflict, fmt.Errorf("dataset %q is mid-move; retry shortly", name))
		return
	}
	defer end()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, service.MaxRequestBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	set := rt.replicaSetFor(name)
	path := "/v1/datasets/" + name + "/edges"
	auth := r.Header.Get("Authorization")
	r.Body = io.NopCloser(bytes.NewReader(body))
	rec := newRecorder()
	rt.backends[set[0]].ServeAPI(rec, r)
	if rec.code/100 == 2 {
		resync := false
		for _, f := range set[1:] {
			if rt.isReplicaStale(name, f) {
				// Already diverged: applying later batches to a diverged copy
				// cannot heal it (and may fail on state it never reached);
				// the pending re-sync brings it fully current instead.
				resync = true
				continue
			}
			if _, err := rt.forward(f, r.Method, path, bytes.NewReader(body), auth, "application/json"); err != nil {
				// A follower that missed one batch has diverged permanently
				// until re-synced: mark it so reads never fail over onto it
				// and a snapshot re-copy is scheduled, rather than silently
				// serving a forked history whenever the primary is unhealthy.
				rt.markReplicaStale(name, f)
				resync = true
				slog.Warn("follower mutation failed; replica marked stale and excluded from reads until re-synced",
					"dataset", name, "shard", rt.backends[f].Name(), "err", err)
			}
		}
		if resync {
			rt.submitReplicate(name, auth)
		}
	}
	rec.replay(w)
}

// routeSnapshotGet streams a snapshot export from the first healthy replica.
// Unlike the small-bodied reads, a snapshot cannot go through the buffering
// failover path (the recorder would hold the whole dataset in router
// memory), so the route picks one replica up front and streams through.
func (rt *Router) routeSnapshotGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	idx := rt.readCandidates(name)[0]
	done := rt.trackRoute(name, idx)
	defer done()
	rt.backends[idx].ServeAPI(w, r)
}

// routeRead forwards a read to the dataset's replicas in candidate order:
// primary first, then each follower, skipping ahead whenever an attempt
// fails at the transport level (a 502, or a response that died mid-body).
// The response is captured in a recorder per attempt, so nothing reaches
// the client until one replica has answered in full — a mid-body connection
// loss on the primary is invisible to the client rather than a truncated
// 200. An answer served by a non-primary replica carries the X-Failed-Over
// header naming the shard that answered.
//
// A 404 from a follower after an earlier transport failure is treated as a
// failed attempt, not an answer: the replica set says the follower should
// hold the dataset, so the likeliest truth is that its sync has not landed
// yet — and the earlier 502 (retryable) is a more honest answer than a
// semantic "does not exist".
func (rt *Router) routeRead(w http.ResponseWriter, r *http.Request, name string, body []byte) {
	cands := rt.readCandidates(name)
	var firstFailure *recorder
	var first404 *recorder
	for ai, idx := range cands {
		req := r.Clone(r.Context())
		if body != nil {
			req.Body = io.NopCloser(bytes.NewReader(body))
			req.ContentLength = int64(len(body))
		}
		done := rt.trackRoute(name, idx)
		rec := newRecorder()
		rt.backends[idx].ServeAPI(rec, req)
		done()
		if rec.code == http.StatusBadGateway || rec.proxyErr != nil {
			rt.markBackendDown(idx)
			if firstFailure == nil && rec.proxyErr == nil {
				firstFailure = rec
			}
			continue
		}
		if rec.code == http.StatusNotFound && len(cands) > 1 {
			// Reachable but not holding the dataset: stale placement — a
			// replica that restarted empty, or a probe clearing the down
			// flag before the reconcile re-pins. Another replica may hold
			// a copy; the backend itself is healthy, so it is not marked
			// down. If every candidate 404s, the 404 was real.
			if first404 == nil {
				first404 = rec
			}
			continue
		}
		if ai > 0 {
			rec.header.Set(client.HeaderFailedOver, rt.backends[idx].Name())
			rt.failovers.Add(1)
		}
		rec.replay(w)
		return
	}
	// A dead backend outranks a 404: the dataset may well exist on it, and
	// 502 tells the client (and the SDK's retry loop) to try again, where a
	// 404 would read as authoritative.
	if firstFailure != nil {
		firstFailure.replay(w)
		return
	}
	if first404 != nil {
		first404.replay(w)
		return
	}
	writeError(w, http.StatusBadGateway,
		fmt.Errorf("%w: every replica of %q failed", ErrShardDown, name))
}

// serveCreateDataset registers a dataset on the shard that should own it —
// the spec's pin when present, an existing assignment, or the ring owner —
// and records the placement on success, so every later request routes to
// where the dataset actually lives.
func (rt *Router) serveCreateDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if rt.isMoving(name) {
		writeError(w, http.StatusConflict, fmt.Errorf("dataset %q is mid-move; retry shortly", name))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, service.MaxRequestBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad dataset spec: %w", err))
		return
	}
	var spec client.DatasetSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad dataset spec: %w", err))
		return
	}
	if service.AsyncRequested(r) {
		// Fail fast on a taken name — the same synchronous 409 the leaf
		// tier gives — rather than minting a job doomed to fail on poll.
		// An unreachable owner skips the check; the job reports the
		// outcome either way.
		cur := rt.OwnerIndex(name)
		if ds, err := rt.backends[cur].Datasets(); err == nil && contains(ds, name) {
			writeError(w, http.StatusConflict, fmt.Errorf(
				"dataset %q already registered on shard %s", name, rt.backends[cur].Name()))
			return
		}
		// The job resource lives on the tier the client talks to: the
		// router runs a job whose work is the synchronous forward below, so
		// GET /v1/jobs/{id} against the router always finds it.
		auth := r.Header.Get("Authorization")
		specCopy := spec
		job, err := rt.jobs.Submit("", client.JobKindCreate, name,
			r.Header.Get(client.HeaderRequestID),
			func(cancel <-chan struct{}, progress func(string)) (*client.DatasetInfo, error) {
				progress("forwarding")
				info, _, err := rt.createOnOwner(name, &specCopy, body, auth)
				return info, err
			})
		if err != nil {
			writeError(w, http.StatusTooManyRequests, err)
			return
		}
		writeJSON(w, http.StatusAccepted, job)
		return
	}
	info, status, err := rt.createOnOwner(name, &spec, body, r.Header.Get("Authorization"))
	if err != nil {
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// createOnOwner registers a dataset on the shard that should own it — the
// spec's pin when present, an existing assignment, or the ring owner —
// records the placement on success, and stamps it into the returned info.
// On failure the returned status is what the HTTP answer should carry.
func (rt *Router) createOnOwner(name string, spec *client.DatasetSpec, body []byte, auth string) (*client.DatasetInfo, int, error) {
	cur := rt.OwnerIndex(name)
	idx := cur
	if spec.Shard != "" {
		pinned, ok := rt.byName[spec.Shard]
		if !ok {
			return nil, http.StatusBadRequest, fmt.Errorf("unknown shard %q", spec.Shard)
		}
		idx = pinned
	}
	if idx != cur {
		// A pin that diverges from the current owner must not mint a second
		// copy of a dataset that is already live there: the target shard
		// cannot see the duplicate, so the router checks the owner itself.
		// An unreachable owner refuses the create — minting a copy now
		// would leave a stale twin serving once the owner recovers.
		ds, err := rt.backends[cur].Datasets()
		if err != nil {
			return nil, http.StatusBadGateway, fmt.Errorf(
				"cannot verify %q is absent from its current owner %s: %v",
				name, rt.backends[cur].Name(), err)
		}
		for _, d := range ds {
			if d == name {
				return nil, http.StatusConflict, fmt.Errorf(
					"dataset %q already registered on shard %s; delete it before re-creating elsewhere",
					name, rt.backends[cur].Name())
			}
		}
	}
	req, err := http.NewRequest(http.MethodPost, "/v1/datasets/"+name, bytes.NewReader(body))
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	req.Header.Set("Content-Type", "application/json")
	if auth != "" {
		req.Header.Set("Authorization", auth)
	}
	rec := newRecorder()
	rt.backends[idx].ServeAPI(rec, req)
	if rec.code != http.StatusCreated {
		msg := errorMessage(rec.body.Bytes())
		if msg == "" {
			msg = fmt.Sprintf("shard %s answered %d", rt.backends[idx].Name(), rec.code)
		}
		return nil, rec.code, errors.New(msg)
	}
	set := rt.placementFor(name, idx, spec.Replication)
	rt.pinSet(name, set)
	if len(set) > 1 {
		// Followers sync in the background: the create answers as soon as
		// the primary serves, redundancy arrives via the replicate job.
		rt.submitReplicate(name, auth)
	}
	// Stamp the placement into the response so the caller learns where the
	// dataset landed.
	var info client.DatasetInfo
	if err := json.Unmarshal(rec.body.Bytes(), &info); err != nil {
		return nil, http.StatusBadGateway, fmt.Errorf("shard %s: malformed create response", rt.backends[idx].Name())
	}
	info.Shard = rt.backends[idx].Name()
	info.Replicas = rt.backendNames(set)
	return &info, http.StatusCreated, nil
}

// placementFor composes a dataset's ordered replica set: the chosen primary
// followed by ring-walk followers on distinct backends, rf members in total
// (0 selects the router default; clamped to the backend count).
func (rt *Router) placementFor(name string, primary, rf int) []int {
	if rf <= 0 {
		rt.mu.RLock()
		rf = rt.replication
		rt.mu.RUnlock()
	}
	if rf > len(rt.backends) {
		rf = len(rt.backends)
	}
	set := []int{primary}
	for _, c := range rt.ringReplicas(name, len(rt.backends)) {
		if len(set) >= rf {
			break
		}
		if !containsInt(set, c) {
			set = append(set, c)
		}
	}
	return set
}

// backendNames maps backend indices to their shard names.
func (rt *Router) backendNames(set []int) []string {
	if len(set) <= 1 {
		return nil
	}
	names := make([]string, len(set))
	for i, idx := range set {
		names[i] = rt.backends[idx].Name()
	}
	return names
}

// isMoving reports whether a move job currently owns the dataset's
// lifecycle (creates and deletes are refused meanwhile).
func (rt *Router) isMoving(name string) bool {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.moving[name]
}

// beginWrite registers a write to the dataset, or reports false when a move
// owns it. The returned func ends the registration.
func (rt *Router) beginWrite(name string) (end func(), ok bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.moving[name] {
		return nil, false
	}
	rt.writes[name]++
	return func() {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		if rt.writes[name]--; rt.writes[name] == 0 {
			delete(rt.writes, name)
		}
	}, true
}

// writesInFlight counts the dataset's registered writes.
func (rt *Router) writesInFlight(name string) int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.writes[name]
}

// serveRestoreSnapshot forwards a snapshot upload to the shard that should
// own the dataset and records the placement on success — the upload analog
// of serveCreateDataset (snapshot uploads carry no spec, so no pin; an
// explicit placement goes through /move afterwards).
func (rt *Router) serveRestoreSnapshot(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if rt.isMoving(name) {
		writeError(w, http.StatusConflict, fmt.Errorf("dataset %q is mid-move; retry shortly", name))
		return
	}
	idx := rt.OwnerIndex(name)
	rec := newRecorder()
	rt.backends[idx].ServeAPI(rec, r)
	if rec.code == http.StatusCreated {
		set := rt.placementFor(name, idx, 0)
		rt.pinSet(name, set)
		if len(set) > 1 {
			rt.submitReplicate(name, r.Header.Get("Authorization"))
		}
		var info client.DatasetInfo
		if json.Unmarshal(rec.body.Bytes(), &info) == nil {
			info.Shard = rt.backends[idx].Name()
			info.Replicas = rt.backendNames(set)
			writeJSON(w, rec.code, info)
			return
		}
	}
	rec.replay(w)
}

func (rt *Router) serveGetJob(w http.ResponseWriter, r *http.Request) {
	job, err := rt.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (rt *Router) serveListJobs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, client.JobList{Jobs: rt.jobs.List()})
}

func (rt *Router) serveCancelJob(w http.ResponseWriter, r *http.Request) {
	job, err := rt.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// serveDeleteDataset forwards the delete to the primary and erases the
// assignment on success; follower copies are deleted best-effort afterwards
// (an unreachable follower keeps its copy, which the conservative reconcile
// rule can never route to while the routing table has no entry pointing at
// it). Re-creating the dataset afterwards (optionally pinned elsewhere) is
// how a dataset moves without a restart.
func (rt *Router) serveDeleteDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	end, ok := rt.beginWrite(name)
	if !ok {
		writeError(w, http.StatusConflict, fmt.Errorf("dataset %q is mid-move; retry shortly", name))
		return
	}
	defer end()
	set := rt.replicaSetFor(name)
	rec := newRecorder()
	rt.backends[set[0]].ServeAPI(rec, r)
	if rec.code/100 == 2 {
		auth := r.Header.Get("Authorization")
		for _, f := range set[1:] {
			if _, err := rt.forward(f, http.MethodDelete, "/v1/datasets/"+name, nil, auth, ""); err != nil {
				slog.Warn("follower delete failed; stale copy retained",
					"dataset", name, "shard", rt.backends[f].Name(), "err", err)
			}
		}
		rt.unpin(name)
	}
	rec.replay(w)
}

// serveBatch splits a batch by owning shard, forwards the sub-batches
// concurrently, and merges the per-item results back in request order. A
// whole sub-batch that fails (shard down, saturated) becomes that status on
// each of its items — one shard's trouble never fails another shard's
// items. When every item lands on one shard the original body streams
// through, so a single-shard deployment keeps the leaf semantics exactly.
func (rt *Router) serveBatch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, service.MaxRequestBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	var req client.BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty batch"))
		return
	}
	if len(req.Items) > service.MaxBatchItems {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("%d batch items exceed the limit of %d", len(req.Items), service.MaxBatchItems))
		return
	}

	results := make([]client.BatchItemResult, len(req.Items))
	groups := make(map[int][]int) // backend index -> original item indices
	tried := make([]map[int]bool, len(req.Items))
	for i := range req.Items {
		ds := req.Items[i].Dataset
		if ds == "" {
			results[i] = client.BatchItemResult{Status: http.StatusBadRequest, Error: "missing dataset"}
			continue
		}
		tried[i] = make(map[int]bool)
		idx := rt.readCandidates(ds)[0]
		groups[idx] = append(groups[idx], i)
	}
	if len(groups) == 1 && len(groups[firstKey(groups)]) == len(req.Items) {
		// Single owner and no locally rejected items: stream through via the
		// failover-aware path (the whole batch is one dataset group).
		idx := firstKey(groups)
		if len(rt.readCandidates(req.Items[0].Dataset)) == 1 {
			// No replicas to fail over to: stream the original body through.
			done := rt.trackRoute(req.Items[0].Dataset, idx)
			defer done()
			r.Body = io.NopCloser(bytes.NewReader(body))
			r.ContentLength = int64(len(body))
			rt.backends[idx].ServeAPI(w, r)
			return
		}
	}

	var wg sync.WaitGroup
	for idx, items := range groups {
		wg.Add(1)
		go func(idx int, items []int) {
			defer wg.Done()
			rt.forwardSubBatch(r, &req, idx, items, results, tried, 0)
		}(idx, items)
	}
	wg.Wait()

	out := client.BatchResponse{Items: results}
	for i := range results {
		if results[i].Status == http.StatusOK {
			out.OK++
		} else {
			out.Failed++
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// forwardSubBatch sends the items owned by one backend as a batch of their
// own and scatters the answers back into the original positions. When the
// whole sub-batch fails at the transport level, each item is regrouped onto
// its next untried replica and re-dispatched — batch items enjoy the same
// failover as single requests. Recursion terminates because every dispatch
// marks the backend tried for all its items.
func (rt *Router) forwardSubBatch(r *http.Request, req *client.BatchRequest, idx int, items []int, results []client.BatchItemResult, tried []map[int]bool, attempt int) {
	sub := client.BatchRequest{TimeoutMs: req.TimeoutMs, Parallel: req.Parallel, Items: make([]client.BatchItem, len(items))}
	for si, oi := range items {
		sub.Items[si] = req.Items[oi]
	}
	subBody, err := json.Marshal(&sub)
	if err != nil {
		fillGroupError(results, items, http.StatusInternalServerError, err.Error())
		return
	}
	fwd, err := http.NewRequestWithContext(r.Context(), http.MethodPost, "/v1/batch", bytes.NewReader(subBody))
	if err != nil {
		fillGroupError(results, items, http.StatusInternalServerError, err.Error())
		return
	}
	fwd.Header.Set("Content-Type", "application/json")
	if auth := r.Header.Get("Authorization"); auth != "" {
		fwd.Header.Set("Authorization", auth)
	}
	// Each item joins the in-flight table against the backend actually hit,
	// so a move drains batch traffic to the source like single requests.
	dones := make([]func(), 0, len(items))
	for _, oi := range items {
		dones = append(dones, rt.trackRoute(req.Items[oi].Dataset, idx))
	}
	rec := newRecorder()
	rt.backends[idx].ServeAPI(rec, fwd)
	for _, done := range dones {
		done()
	}
	if rec.code == http.StatusBadGateway || rec.proxyErr != nil {
		rt.markBackendDown(idx)
		msg := errorMessage(rec.body.Bytes())
		if msg == "" {
			msg = fmt.Sprintf("shard %s unreachable", rt.backends[idx].Name())
		}
		regroups := make(map[int][]int)
		for _, oi := range items {
			tried[oi][idx] = true
			next := -1
			for _, c := range rt.readCandidates(req.Items[oi].Dataset) {
				if !tried[oi][c] {
					next = c
					break
				}
			}
			if next < 0 {
				results[oi] = client.BatchItemResult{Status: http.StatusBadGateway, Error: msg}
				continue
			}
			regroups[next] = append(regroups[next], oi)
		}
		for nidx, nitems := range regroups {
			rt.failovers.Add(1)
			rt.forwardSubBatch(r, req, nidx, nitems, results, tried, attempt+1)
		}
		return
	}
	if rec.code != http.StatusOK {
		msg := errorMessage(rec.body.Bytes())
		if msg == "" {
			msg = fmt.Sprintf("shard %s answered %d", rt.backends[idx].Name(), rec.code)
		}
		fillGroupError(results, items, rec.code, msg)
		return
	}
	var subResp client.BatchResponse
	if err := json.Unmarshal(rec.body.Bytes(), &subResp); err != nil || len(subResp.Items) != len(items) {
		fillGroupError(results, items, http.StatusBadGateway,
			fmt.Sprintf("shard %s: malformed batch response", rt.backends[idx].Name()))
		return
	}
	for si, oi := range items {
		results[oi] = subResp.Items[si]
	}
	// Stale placement: an item that 404'd on this backend may still be held
	// by another replica (one restarted empty, or a probe cleared the down
	// flag before the reconcile re-pinned). Retry those items on their next
	// untried candidate — the backend stays up; it is healthy, just not a
	// holder. If every candidate 404s, the first 404 stands.
	regroups := make(map[int][]int)
	for si, oi := range items {
		if subResp.Items[si].Status != http.StatusNotFound {
			continue
		}
		tried[oi][idx] = true
		next := -1
		for _, c := range rt.readCandidates(req.Items[oi].Dataset) {
			if !tried[oi][c] {
				next = c
				break
			}
		}
		if next >= 0 {
			regroups[next] = append(regroups[next], oi)
		}
	}
	for nidx, nitems := range regroups {
		rt.failovers.Add(1)
		rt.forwardSubBatch(r, req, nidx, nitems, results, tried, attempt+1)
	}
}

func fillGroupError(results []client.BatchItemResult, items []int, status int, msg string) {
	for _, oi := range items {
		results[oi] = client.BatchItemResult{Status: status, Error: msg}
	}
}

func errorMessage(body []byte) string {
	var eb struct {
		Error string `json:"error"`
	}
	_ = json.Unmarshal(body, &eb)
	return eb.Error
}

func firstKey(m map[int][]int) int {
	for k := range m {
		return k
	}
	return 0
}

// recorder captures a forwarded response so the router can inspect the
// status (lifecycle bookkeeping) or re-scatter the body (batch merge)
// before anything reaches the client.
type recorder struct {
	code   int
	header http.Header
	body   bytes.Buffer
	// proxyErr is set by the backend (via the proxyFailed sink) when the
	// upstream connection died mid-body: the captured response is truncated
	// and must not be replayed as an answer, whatever its status code.
	proxyErr error
}

func newRecorder() *recorder { return &recorder{code: http.StatusOK, header: http.Header{}} }

func (rec *recorder) Header() http.Header         { return rec.header }
func (rec *recorder) WriteHeader(code int)        { rec.code = code }
func (rec *recorder) Write(p []byte) (int, error) { return rec.body.Write(p) }

// proxyFailed implements the sink Remote.ServeAPI reports mid-body copy
// errors to.
func (rec *recorder) proxyFailed(err error) { rec.proxyErr = err }

// replay copies the captured response to the real writer. Headers the edge
// middleware already stamped (the request ID) are skipped: the leaf echoes
// the same value, and adding it again would duplicate the header.
func (rec *recorder) replay(w http.ResponseWriter) {
	for k, vs := range rec.header {
		if len(w.Header().Values(k)) > 0 && k == http.CanonicalHeaderKey(client.HeaderRequestID) {
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(rec.code)
	_, _ = w.Write(rec.body.Bytes())
}

// ShardHealth is one shard's slice of the aggregated health payload.
// LastProbe and ConsecutiveFailures expose the router's probe bookkeeping, so
// an operator (or the CI fault-injection check) can tell a shard that just
// went down from one that has been flapping for minutes.
type ShardHealth struct {
	Name                string   `json:"name"`
	Ok                  bool     `json:"ok"`
	Error               string   `json:"error,omitempty"`
	Datasets            []string `json:"datasets,omitempty"`
	LastProbe           string   `json:"last_probe,omitempty"` // RFC 3339; empty = never probed
	ConsecutiveFailures int64    `json:"consecutive_failures,omitempty"`
}

func (rt *Router) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	shards := make([]ShardHealth, len(rt.backends))
	rt.fanOut(func(i int, b Backend) {
		sh := ShardHealth{Name: b.Name()}
		ds, err := b.Datasets()
		rt.noteProbe(i, err)
		if err != nil {
			sh.Error = err.Error()
		} else {
			sh.Ok = true
			sh.Datasets = ds
		}
		if ns := rt.probes[i].lastUnixNano.Load(); ns != 0 {
			sh.LastProbe = time.Unix(0, ns).UTC().Format(time.RFC3339Nano)
		}
		sh.ConsecutiveFailures = rt.probes[i].consecFails.Load()
		shards[i] = sh
	})
	up := 0
	for _, sh := range shards {
		if sh.Ok {
			up++
		}
	}
	// Some shards down is degraded (the healthy ones keep serving theirs,
	// still 200 for load balancers); every shard down is a dead fleet.
	status, code := "ok", http.StatusOK
	switch {
	case up == 0:
		status, code = "down", http.StatusServiceUnavailable
	case up < len(shards):
		status = "degraded"
	}
	writeJSON(w, code, map[string]any{"status": status, "shards": shards})
}

// ShardStats is one shard's slice of the aggregated stats payload.
type ShardStats struct {
	Name  string         `json:"name"`
	Ok    bool           `json:"ok"`
	Error string         `json:"error,omitempty"`
	Stats *service.Stats `json:"stats,omitempty"`
}

// Stats is the aggregated /v1/stats payload: summed counters over the
// reachable shards plus the per-shard breakdown. Latency histograms share
// one fixed log-scale bucket schema, so they merge by addition and the
// fleet p50/p99 in Totals are true quantiles (within one bucket width) —
// not the worst per-shard value.
type Stats struct {
	Shards int `json:"shards"`
	Down   int `json:"down"`
	// Replication is the router's default replica count; Replicas lists the
	// pinned replica sets (dataset -> shard names, primary first).
	Replication int                 `json:"replication,omitempty"`
	Replicas    map[string][]string `json:"replicas,omitempty"`
	// StaleReplicas lists replica copies that missed a mutation forward and
	// are excluded from read failover until a snapshot re-copy lands:
	// dataset -> shard names. Empty on a converged fleet.
	StaleReplicas map[string][]string `json:"stale_replicas,omitempty"`
	Totals        service.Stats       `json:"totals"`
	PerShard      []ShardStats        `json:"per_shard"`
}

// Stats fans out to every shard and aggregates.
func (rt *Router) Stats() Stats {
	per := make([]ShardStats, len(rt.backends))
	rt.fanOut(func(i int, b Backend) {
		ss := ShardStats{Name: b.Name()}
		st, err := b.Stats()
		rt.noteProbe(i, err)
		if err != nil {
			ss.Error = err.Error()
		} else {
			ss.Ok = true
			ss.Stats = &st
		}
		per[i] = ss
	})
	out := Stats{Shards: len(per), PerShard: per}
	rt.mu.RLock()
	out.Replication = rt.replication
	if len(rt.assign) > 0 {
		out.Replicas = make(map[string][]string, len(rt.assign))
		for ds, set := range rt.assign {
			names := make([]string, len(set))
			for i, idx := range set {
				names[i] = rt.backends[idx].Name()
			}
			out.Replicas[ds] = names
		}
	}
	rt.mu.RUnlock()
	out.StaleReplicas = rt.staleReplicaNames()
	out.Totals.Failovers = rt.failovers.Load()
	out.Totals.DrainTimeouts = rt.drainTimeouts.Load()
	out.Totals.ReplicaSyncs = rt.replicaSyncs.Load()
	// The router's own control-plane jobs (forwarded creates, moves,
	// replicate jobs) are a resource of this tier, so they count into the
	// fleet totals alongside the leaves' own jobs.
	routerJobsDone, routerJobsFailed := rt.jobs.Counts()
	out.Totals.JobsDone += routerJobsDone
	out.Totals.JobsFailed += routerJobsFailed
	datasets := make(map[string]bool)
	for _, ss := range per {
		if !ss.Ok {
			out.Down++
			continue
		}
		st := ss.Stats
		tot := &out.Totals
		tot.Requests += st.Requests
		tot.Completed += st.Completed
		tot.Failed += st.Failed
		tot.RejectedSaturated += st.RejectedSaturated
		tot.DeadlineExceeded += st.DeadlineExceeded
		tot.Mutations += st.Mutations
		tot.InFlight += st.InFlight
		tot.Queued += st.Queued
		tot.MaxInFlight += st.MaxInFlight
		tot.MaxQueue += st.MaxQueue
		if st.UptimeSeconds > tot.UptimeSeconds {
			tot.UptimeSeconds = st.UptimeSeconds
		}
		for _, d := range st.Datasets {
			datasets[d] = true
		}
		tot.Cache.Entries += st.Cache.Entries
		tot.Cache.Capacity += st.Cache.Capacity
		tot.Cache.CostUsed += st.Cache.CostUsed
		tot.Cache.MaxCost += st.Cache.MaxCost
		tot.Cache.Hits += st.Cache.Hits
		tot.Cache.Misses += st.Cache.Misses
		tot.Cache.Coalesced += st.Cache.Coalesced
		tot.Cache.Evictions += st.Cache.Evictions
		tot.JobsDone += st.JobsDone
		tot.JobsFailed += st.JobsFailed
		tot.StandingQueries += st.StandingQueries
		tot.StandingEvents += st.StandingEvents
		tot.StandingLagged += st.StandingLagged
		tot.StandingEvals += st.StandingEvals
		tot.StandingNotified += st.StandingNotified
		// Keyed and stage histograms merge per entry by histogram addition,
		// exactly like the global latency series: the fleet's per-dataset
		// quantiles are true quantiles.
		tot.DatasetStats = client.MergeKeyStats(tot.DatasetStats, st.DatasetStats)
		tot.Stages = client.MergeStageStats(tot.Stages, st.Stages)
		tot.Latency.Merge(st.Latency)
	}
	for d := range datasets {
		out.Totals.Datasets = append(out.Totals.Datasets, d)
	}
	sort.Strings(out.Totals.Datasets)
	return out
}

func (rt *Router) serveStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, rt.Stats())
}

// serveMetrics renders the router's Prometheus exposition: every reachable
// shard's series federated under a shard="..." label (so sum() over the
// label is the fleet total, with no unlabeled duplicate to double-count),
// plus the router's own routing and control-plane counters under
// macserver_router_* names and a per-shard liveness gauge.
func (rt *Router) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	st := rt.Stats()
	w.Header().Set("Content-Type", service.PromContentType)
	sets := make([]service.PromSet, 0, len(st.PerShard))
	up := make([]service.PromSample, len(st.PerShard))
	for i, ss := range st.PerShard {
		label := []service.PromLabel{{Name: "shard", Value: ss.Name}}
		if ss.Ok {
			sets = append(sets, service.PromSet{Labels: label, Stats: *ss.Stats})
			up[i] = service.PromSample{Labels: label, Value: 1}
		} else {
			up[i] = service.PromSample{Labels: label, Value: 0}
		}
	}
	_ = service.WriteProm(w, sets)
	_ = service.PromGauge(w, "macserver_shard_up",
		"Whether the shard answered the stats fan-out (1 up, 0 down).", up)
	routerJobsDone, routerJobsFailed := rt.jobs.Counts()
	one := func(v int64) []service.PromSample { return []service.PromSample{{Value: float64(v)}} }
	_ = service.PromCounter(w, "macserver_router_failovers_total",
		"Reads the router served from a follower because the primary failed.", one(rt.failovers.Load()))
	_ = service.PromCounter(w, "macserver_router_drain_timeouts_total",
		"Dataset moves whose source drain timed out.", one(rt.drainTimeouts.Load()))
	_ = service.PromCounter(w, "macserver_router_replica_syncs_total",
		"Replicate jobs the router submitted to sync followers.", one(rt.replicaSyncs.Load()))
	_ = service.PromCounter(w, "macserver_router_stale_replicas_marked_total",
		"Replica copies marked stale by a failed follower mutation forward.", one(rt.staleMarked.Load()))
	staleNow := 0
	for _, names := range st.StaleReplicas {
		staleNow += len(names)
	}
	_ = service.PromGauge(w, "macserver_router_stale_replicas",
		"Replica copies currently stale and excluded from read failover.", one(int64(staleNow)))
	_ = service.PromCounter(w, "macserver_router_jobs_total",
		"Settled router control-plane jobs by outcome.", []service.PromSample{
			{Labels: []service.PromLabel{{Name: "outcome", Value: "done"}}, Value: float64(routerJobsDone)},
			{Labels: []service.PromLabel{{Name: "outcome", Value: "failed"}}, Value: float64(routerJobsFailed)},
		})
}

// fanOut runs fn once per backend, concurrently — a down remote shard costs
// its own timeout, not the sum over shards.
func (rt *Router) fanOut(fn func(i int, b Backend)) {
	var wg sync.WaitGroup
	for i, b := range rt.backends {
		wg.Add(1)
		go func(i int, b Backend) {
			defer wg.Done()
			fn(i, b)
		}(i, b)
	}
	wg.Wait()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the canonical {"error", "code"} body; the code mapping
// is shared with the leaf tier so every tier's errors agree.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{
		"error": err.Error(),
		"code":  client.CodeForStatus(status),
	})
}
