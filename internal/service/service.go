// Package service is the long-lived MAC query server: it holds datasets
// (road-social networks plus their indexes) in memory and serves
// GlobalSearch/LocalSearch/KTCore requests over a resource-oriented
// HTTP/JSON API, amortizing per-query preparation the way a G-tree
// amortizes index construction.
//
// Datasets are first-class resources with a lifecycle: POST and DELETE on
// /v1/datasets/{name} register and unregister them online, from an on-disk
// spec, while other datasets keep answering — no restart, and in-flight
// searches on a deleted dataset finish on the memory they already hold.
//
// Three mechanisms make the query path hold up under the ROADMAP's
// million-user target:
//
//   - A shared prepared-state cache (weighted LRU + single-flight) keyed by
//     (dataset, engine variant, Q, k, t). Prepare — the road-network range
//     query plus the engine's maximal cohesive subgraph — dominates
//     small-query latency; concurrent identical preparations coalesce onto
//     one computation and later requests reuse it outright. Admission is
//     cost-aware (entries weigh their subgraph size) with optional TTLs for
//     mutable datasets. Both engines — core and truss — are driven solely
//     through the mac.Engine interface, so every variant shares the cache.
//   - Admission control: a bounded in-flight semaphore with a bounded
//     waiting queue. Requests beyond both bounds are rejected immediately
//     (HTTP 429) instead of piling up, so saturation degrades service
//     latency, not service stability. A /v1/batch request is admitted once
//     for all its items, amortizing the admission and transport overhead.
//   - Per-request deadlines wired to Query.Cancel: a request that exceeds
//     its deadline (or whose client disconnects) abandons its search at the
//     next task boundary and frees its workers (HTTP 504).
//
// The package is transport-agnostic at its core (Do, DoBatch) with an
// http.Handler veneer speaking the canonical wire contract of the public
// client package; cmd/macserver is the binary.
package service

import (
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"roadsocial/client"
	"roadsocial/internal/dataset"
	"roadsocial/internal/mac"
	"roadsocial/internal/standing"
)

// Config tunes the server. The zero value selects sensible defaults.
type Config struct {
	// MaxInFlight bounds concurrently executing searches; <= 0 selects
	// GOMAXPROCS (each search can itself be parallel, so more in-flight
	// work than cores only adds queueing inside the scheduler).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an in-flight slot; <= 0 selects
	// 4*MaxInFlight. Requests arriving beyond the queue are rejected with
	// ErrSaturated (HTTP 429).
	MaxQueue int
	// DefaultTimeout applies when a request carries no deadline; <= 0
	// selects 10s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines; <= 0 selects 60s.
	MaxTimeout time.Duration
	// CacheCapacity bounds the prepared-state cache entries; <= 0 selects
	// 256.
	CacheCapacity int
	// CacheMaxCost bounds the total weight of resident prepared states,
	// where each entry weighs its cohesive-subgraph size (members): a huge
	// kt-core displaces many cheap entries instead of exactly one. <= 0
	// selects 1<<20 (a million member-vertices).
	CacheMaxCost int64
	// Parallelism is the per-search worker count when the request does not
	// choose one; 0 selects GOMAXPROCS.
	Parallelism int
	// AuthToken, when non-empty, makes the HTTP handler require
	// "Authorization: Bearer <AuthToken>" on every /v1 route (401
	// otherwise). The in-process Do/DoBatch entry points are not gated.
	AuthToken string
	// LoadSpec materializes a dataset for POST /v1/datasets/{name}, returning
	// the network and its mutation version (0 for freshly built datasets;
	// snapshot-backed specs report the snapshot's stamped version). Nil
	// selects LoadSpecFiles, which understands the file-backed half of the
	// spec; cmd/macserver injects a loader that also resolves the synthetic
	// catalog.
	LoadSpec func(name string, spec *DatasetSpec) (*mac.Network, uint64, error)
	// Logger, when non-nil, makes the HTTP handler emit one structured
	// access-log record per request (see AccessLog) and receives the
	// slow-query records. Nil disables access logging; slow-query records
	// then fall through to slog.Default().
	Logger *slog.Logger
	// SlowQuery, when > 0, logs a warning with the full request key
	// (dataset, algo, Q, k, t) for any search slower than the threshold.
	SlowQuery time.Duration
	// MaxSnapshotBytes bounds how large a snapshot the buffered restore
	// paths (PUT /v1/datasets/{name}/snapshot, shard moves) will hold in
	// memory; <= 0 selects dataset.DefaultMaxSnapshotBytes (1 GiB). The
	// file/mmap register path (DatasetSpec.Snapshot) never buffers, so no
	// cap applies there — oversized datasets should register from files.
	MaxSnapshotBytes int64
	// MutationLogDir, when non-empty, makes every dataset's mutations durable:
	// each dataset appends its accepted ops to an fsynced journal in this
	// directory (one file per dataset) before answering, and registration
	// replays the journal past the registered network's version, so a
	// restarted server converges to its pre-crash state. Empty disables
	// durability — mutations still apply, but do not survive a restart.
	MutationLogDir string
	// StandingDir is where standing-query registrations persist (one
	// sidecar log per dataset, next to its mutation journal); empty
	// selects MutationLogDir. Registrations survive restarts only when a
	// directory is configured through either field.
	StandingDir string
	// StandingRing bounds each standing query's event ring — the
	// Last-Event-ID resume window; <= 0 selects standing.DefaultRingSize.
	StandingRing int
	// StandingSubBuffer bounds each SSE subscriber's event buffer; a
	// subscriber this far behind is dropped with a lagged marker rather than
	// blocking the publisher. <= 0 selects standing.DefaultSubBuffer.
	StandingSubBuffer int
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.CacheCapacity <= 0 {
		c.CacheCapacity = 256
	}
	if c.CacheMaxCost <= 0 {
		c.CacheMaxCost = 1 << 20
	}
	if c.LoadSpec == nil {
		c.LoadSpec = LoadSpecFiles
	}
	if c.MaxSnapshotBytes <= 0 {
		c.MaxSnapshotBytes = dataset.DefaultMaxSnapshotBytes
	}
	if c.StandingDir == "" {
		c.StandingDir = c.MutationLogDir
	}
	return c
}

// ErrSaturated reports that both the in-flight bound and the waiting queue
// are full; the caller should retry later (HTTP 429).
var ErrSaturated = errors.New("service: saturated (in-flight and queue bounds reached)")

// ErrUnknownDataset reports a request against a dataset name the server
// does not hold.
var ErrUnknownDataset = errors.New("service: unknown dataset")

// ErrDatasetExists reports a create against a name already registered
// (HTTP 409); delete first to replace a dataset.
var ErrDatasetExists = errors.New("service: dataset already registered")

// Server is the long-lived query service. Create with New, register
// datasets with AddDataset (or over HTTP), then serve either through
// Handler (HTTP) or Do/DoBatch (in-process).
type Server struct {
	cfg   Config
	start time.Time

	mu   sync.RWMutex
	nets map[string]dsEntry
	gen  uint64 // monotonic dataset registration counter (under mu)

	// regMu guards regLocks, the per-dataset-name registration locks that
	// serialize the journal open/compact/replay of AddDatasetVersion against
	// the journal drop of RemoveDataset for one name (see lockName). The
	// registry lock mu stays free during journal I/O, so registrations of
	// distinct datasets still run concurrently.
	regMu    sync.Mutex
	regLocks map[string]*nameLock

	cache    *prepCache
	sem      chan struct{}
	jobs     *Jobs
	standing *standing.Registry

	queued            atomic.Int64
	inFlight          atomic.Int64
	requests          atomic.Int64
	completed         atomic.Int64
	failed            atomic.Int64
	rejectedSaturated atomic.Int64
	deadlineExceeded  atomic.Int64
	mutations         atomic.Int64

	lat     latencyHist
	metrics *metricsRegistry
}

// New creates a server with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:      cfg,
		start:    time.Now(),
		nets:     make(map[string]dsEntry),
		regLocks: make(map[string]*nameLock),
		cache:    newPrepCache(cfg.CacheCapacity, cfg.CacheMaxCost),
		sem:      make(chan struct{}, cfg.MaxInFlight),
		jobs:     NewJobs(),
		standing: standing.NewRegistry(standing.Config{
			Dir:       cfg.StandingDir,
			RingSize:  cfg.StandingRing,
			SubBuffer: cfg.StandingSubBuffer,
		}),
		metrics: newMetricsRegistry(),
	}
}

// nameLock is one dataset name's registration lock, reference-counted so the
// table only holds names with a lifecycle operation in flight.
type nameLock struct {
	mu   sync.Mutex
	refs int
}

// lockName claims the registration lock for a dataset name and returns its
// release. While held, no other AddDatasetVersion or RemoveDataset of the
// same name can open, compact, or delete the dataset's mutation journal:
// without this, a concurrent register+register or remove+re-register pair
// can rename or delete the journal file out from under the handle the other
// party just opened, leaving a live dataset fsyncing appends into an
// unlinked inode — durable-looking writes that vanish on restart. Never
// acquired while holding s.mu (Add/Remove take lockName first, then mu).
func (s *Server) lockName(name string) (release func()) {
	s.regMu.Lock()
	l := s.regLocks[name]
	if l == nil {
		l = &nameLock{}
		s.regLocks[name] = l
	}
	l.refs++
	s.regMu.Unlock()
	l.mu.Lock()
	return func() {
		l.mu.Unlock()
		s.regMu.Lock()
		l.refs--
		if l.refs == 0 {
			delete(s.regLocks, name)
		}
		s.regMu.Unlock()
	}
}

// dsEntry is one registered dataset: the shared read-only network plus the
// registration generation that keys its prepared states. The generation
// makes delete + re-create under one name safe: prepared state from the
// previous registration can never serve the new one. Mutations swap the net
// pointer copy-on-write and bump version without changing gen: in-flight
// searches pin the network they resolved, and prepared states falsified by
// the mutation are invalidated selectively rather than by a generation flip.
type dsEntry struct {
	net     *mac.Network
	gen     uint64
	version uint64
	mut     *mutState
}

// AddDataset registers a network under a name. The network (including any
// Oracle index) must be fully built: it is shared read-only by every
// request from then on; writes go through Mutate, which replaces the
// network copy-on-write.
func (s *Server) AddDataset(name string, net *mac.Network) error {
	return s.AddDatasetVersion(name, net, 0)
}

// AddDatasetVersion is AddDataset for networks restored at a known mutation
// version (a stamped snapshot). When Config.MutationLogDir is set, the
// dataset's journal is opened with the version as its base: records at or
// below it are compacted away, later ones replay onto the network before
// registration, so the registered dataset converges to its pre-crash state.
func (s *Server) AddDatasetVersion(name string, net *mac.Network, version uint64) error {
	if name == "" {
		return errors.New("service: empty dataset name")
	}
	if err := net.Validate(); err != nil {
		return err
	}
	// The name lock spans the exists-check, the journal open/compact/replay,
	// and the registration: two concurrent creates of one name must not both
	// compact+rename the same journal file (the loser's rename would unlink
	// the winner's open handle), and the exists-check must precede
	// openMutations so a doomed duplicate create never touches the journal
	// of the dataset already serving under the name.
	unlock := s.lockName(name)
	defer unlock()
	if s.holdsDataset(name) {
		return fmt.Errorf("%w: %q", ErrDatasetExists, name)
	}
	// Replay before claiming the name: a corrupt journal must fail the
	// registration, not leave a half-mutated dataset serving.
	ms, net, version, err := s.openMutations(name, net, version)
	if err != nil {
		return err
	}
	// Restore standing-query registrations from the sidecar under the same
	// name lock (its open/compact discipline mirrors the journal's).
	restored, err := s.standing.OpenDataset(name)
	if err != nil {
		ms.close()
		return fmt.Errorf("service: dataset %q standing sidecar: %w", name, err)
	}
	s.mu.Lock()
	if _, ok := s.nets[name]; ok {
		// Unreachable while every registration path holds the name lock;
		// kept as a defensive invariant.
		s.mu.Unlock()
		ms.close()
		s.standing.CloseDataset(name)
		return fmt.Errorf("%w: %q", ErrDatasetExists, name)
	}
	s.gen++
	s.nets[name] = dsEntry{net: net, gen: s.gen, version: version, mut: ms}
	s.mu.Unlock()
	if len(restored) > 0 {
		// Restored queries re-evaluate once at the registered (post-replay)
		// version: their first event tells resuming subscribers where the
		// dataset converged, even when the membership did not move.
		s.logger().Info("standing queries restored",
			"dataset", name, "queries", len(restored), "version", version)
		if _, start := s.standing.MarkAllPending(name); start {
			s.submitStandingEval(name, "")
		}
	}
	return nil
}

// RemoveDataset unregisters a dataset and purges its prepared states from
// the cache. Searches already in flight keep the network alive through
// their own references and finish normally; new requests answer 404. The
// dataset's mutation journal is deleted with it — a later re-create under
// the same name starts fresh.
func (s *Server) RemoveDataset(name string) error {
	// Hold the name lock across the unregister AND the journal drop: a
	// concurrent re-create of the name must not open a fresh journal that
	// this drop then deletes by path (the re-created dataset would keep
	// appending, durably to all appearances, to an unlinked inode).
	unlock := s.lockName(name)
	defer unlock()
	s.mu.Lock()
	e, ok := s.nets[name]
	delete(s.nets, name)
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	e.mut.drop()
	s.cache.purgeDataset(name)
	// Standing queries die with their dataset: every subscriber gets a
	// terminal event (not a silent hang) and the sidecar is deleted, so a
	// re-create under the name starts fresh, like the journal.
	s.standing.DropDataset(name, "dataset deleted")
	return nil
}

// Datasets returns the registered dataset names, sorted.
func (s *Server) Datasets() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.nets))
	for name := range s.nets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// HotKeys lists up to n of a dataset's completed prepared-cache residents,
// most recently used first, decoded back into request parameters — the
// working set a router replays against a freshly synced replica to warm it.
// An unknown dataset answers ErrUnknownDataset; a known dataset with a cold
// cache answers an empty list.
func (s *Server) HotKeys(name string, n int) ([]client.HotKey, error) {
	if _, err := s.network(name); err != nil {
		return nil, err
	}
	return s.cache.hotKeys(name, n), nil
}

func (s *Server) network(name string) (dsEntry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.nets[name]
	if !ok {
		return dsEntry{}, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	return e, nil
}

// acquire claims an in-flight slot, waiting in the bounded queue when none
// is free. It returns the release function, or ErrSaturated when the queue
// is full, or mac.ErrCanceled when cancel closes while queued.
func (s *Server) acquire(cancel <-chan struct{}) (release func(), err error) {
	claim := func() func() {
		s.inFlight.Add(1)
		return func() {
			s.inFlight.Add(-1)
			<-s.sem
		}
	}
	select {
	case s.sem <- struct{}{}:
		return claim(), nil
	default:
	}
	if int(s.queued.Add(1)) > s.cfg.MaxQueue {
		s.queued.Add(-1)
		s.rejectedSaturated.Add(1)
		return nil, ErrSaturated
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return claim(), nil
	case <-cancel:
		s.deadlineExceeded.Add(1)
		return nil, mac.ErrCanceled
	}
}

// Timing is the per-request phase breakdown in milliseconds: admission
// queue wait, prepared-state resolution, the engine search, and (filled by
// the HTTP layer) response encoding. It feeds the stage histograms and the
// Server-Timing response header.
type Timing struct {
	QueueMs   float64
	PrepareMs float64
	SearchMs  float64
	EncodeMs  float64
}

// serverTiming renders the breakdown as a Server-Timing header value.
func (t Timing) serverTiming() string {
	return fmt.Sprintf("queue;dur=%.3f, prepare;dur=%.3f, search;dur=%.3f, encode;dur=%.3f",
		t.QueueMs, t.PrepareMs, t.SearchMs, t.EncodeMs)
}

// Do executes one request under admission control, with cancel (usually a
// deadline) wired through to Query.Cancel, and returns the phase breakdown
// with the answer. It is the transport-agnostic core the HTTP handlers
// call. Every terminal outcome — success or any error — is recorded into
// the keyed metrics registry with its outcome label, so rejected and
// timed-out traffic shows up in per-dataset latency series instead of
// vanishing.
func (s *Server) Do(req *SearchRequest, cancel <-chan struct{}) (*SearchResponse, Timing, error) {
	start := time.Now()
	var tm Timing
	resp, err := s.doTimed(req, cancel, &tm)
	s.recordOutcome(req, routeFor(req), start, &tm, err)
	return resp, tm, err
}

func (s *Server) doTimed(req *SearchRequest, cancel <-chan struct{}, tm *Timing) (*SearchResponse, error) {
	s.requests.Add(1)
	ds, epoch, err := s.resolve(req)
	if err != nil {
		s.failed.Add(1)
		return nil, err
	}
	queueStart := time.Now()
	release, err := s.acquire(cancel)
	tm.QueueMs = msSince(queueStart)
	if err != nil {
		s.failed.Add(1)
		return nil, err
	}
	defer release()
	return s.doAdmitted(req, ds, epoch, cancel, tm)
}

// resolve validates a request and resolves its dataset entry, returning the
// entry with the dataset's invalidation epoch. Every read — a standalone
// request, a batch item, a standing query's evaluation — starts here. The
// epoch is snapshotted BEFORE the network pointer: a mutation landing
// between the two reads makes the snapshot stale (the cache then
// conservatively drops this request's build), never the reverse, where a
// pre-mutation network would be cached under a post-mutation epoch.
func (s *Server) resolve(req *SearchRequest) (dsEntry, uint64, error) {
	if err := validateRequest(req); err != nil {
		return dsEntry{}, 0, err
	}
	epoch := s.cache.epoch(req.Dataset)
	ds, err := s.network(req.Dataset)
	return ds, epoch, err
}

// routeFor names the metrics route of a standalone request; batch items
// record under "batch" instead.
func routeFor(req *SearchRequest) string {
	if req.KTCoreOnly {
		return "ktcore"
	}
	return "search"
}

// recordOutcome lands one terminal request in the keyed registry. The
// dataset label is kept only for names actually registered (or a clean
// success); anything else — probes of random names, empty names — folds
// into UnknownDataset so a hostile client cannot mint unbounded series.
// Stage histograms record completed requests only, where every phase ran.
func (s *Server) recordOutcome(req *SearchRequest, route string, start time.Time, tm *Timing, err error) {
	outcome := OutcomeOK
	if err != nil {
		outcome = client.CodeForStatus(statusOf(err))
	}
	dataset := req.Dataset
	if dataset == "" {
		dataset = UnknownDataset
	} else if err != nil && !s.holdsDataset(dataset) {
		dataset = UnknownDataset
	}
	s.metrics.record(dataset, string(reqVariant(req)), route, outcome, msSince(start))
	if err == nil && tm != nil {
		s.metrics.recordStage(StageQueue, tm.QueueMs)
		s.metrics.recordStage(StagePrepare, tm.PrepareMs)
		s.metrics.recordStage(StageSearch, tm.SearchMs)
	}
}

func (s *Server) holdsDataset(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.nets[name]
	return ok
}

// msSince is the elapsed time since t in (fractional) milliseconds.
func msSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1000
}

// doAdmitted runs one admitted request and settles its counters; the
// caller holds the in-flight slot (Do claims one per request, DoBatch one
// per batch). epoch is the dataset's invalidation epoch snapshotted before
// ds was resolved.
func (s *Server) doAdmitted(req *SearchRequest, ds dsEntry, epoch uint64, cancel <-chan struct{}, tm *Timing) (*SearchResponse, error) {
	start := time.Now()
	resp, err := s.run(req, ds, epoch, cancel, tm)
	if err != nil {
		if errors.Is(err, mac.ErrCanceled) {
			s.deadlineExceeded.Add(1)
		}
		s.failed.Add(1)
		return nil, err
	}
	elapsed := time.Since(start)
	resp.ElapsedMs = float64(elapsed.Microseconds()) / 1000
	s.completed.Add(1)
	s.lat.record(resp.ElapsedMs)
	return resp, nil
}

// run executes a resolved request: an admitted one, or a standing query's
// evaluation, which bypasses admission (tm is then nil). Every variant flows
// through the same path: resolve the engine from the request, resolve its
// prepared state through the shared single-flight cache, then search via
// the variant-agnostic Prepared handle — the service never branches on the
// variant itself.
func (s *Server) run(req *SearchRequest, ds dsEntry, epoch uint64, cancel <-chan struct{}, tm *Timing) (*SearchResponse, error) {
	net := ds.net
	q, err := buildQuery(req, net, s.cfg.Parallelism, cancel)
	if err != nil {
		return nil, err
	}
	eng, err := mac.EngineFor(reqVariant(req))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	// The response pins the dataset version the search resolved: ds was
	// snapshotted before any concurrent mutation could swap the entry, so
	// net, version, and every result derived from them agree.
	resp := &SearchResponse{Dataset: req.Dataset, Algo: reqAlgo(req), Version: ds.version}

	key := prepKey(req.Dataset, ds.gen, eng.Variant(), req.Q, req.K, req.T)
	var p *mac.Prepared
	var hit bool
	prepStart := time.Now()
	for {
		p, hit, err = s.cache.getOrBuild(key, req.Dataset, epoch, cancel, func() (*mac.Prepared, error) {
			return eng.Prepare(net, q)
		})
		if errors.Is(err, mac.ErrCanceled) && !chanClosed(cancel) {
			// The coalesced build died with its builder's deadline, not
			// ours; the cache dropped the entry — retry as the builder.
			continue
		}
		break
	}
	if tm != nil {
		tm.PrepareMs = msSince(prepStart)
	}
	if hit {
		resp.Cache = CacheHit
	} else {
		resp.Cache = CacheMiss
	}
	if errors.Is(err, mac.ErrNoCommunity) {
		resp.NoCommunity = true
		return resp, nil
	}
	if err != nil {
		return nil, err
	}
	if req.KTCoreOnly {
		// The engines check Query.Cancel themselves; this path skips them,
		// so enforce the deadline explicitly.
		select {
		case <-cancel:
			return nil, mac.ErrCanceled
		default:
		}
		resp.KTCore = p.Members()
		resp.KTCoreSize = len(resp.KTCore)
		return resp, nil
	}
	searchStart := time.Now()
	res, err := p.Search(q, reqSearchOptions(req))
	if tm != nil {
		tm.SearchMs = msSince(searchStart)
	}
	if errors.Is(err, mac.ErrNoCommunity) {
		resp.NoCommunity = true
		return resp, nil
	}
	if err != nil {
		return nil, err
	}
	fillResponse(resp, res, false)
	return resp, nil
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	jobsDone, jobsFailed := s.jobs.Counts()
	return Stats{
		UptimeSeconds:     time.Since(s.start).Seconds(),
		Datasets:          s.Datasets(),
		Requests:          s.requests.Load(),
		Completed:         s.completed.Load(),
		Failed:            s.failed.Load(),
		RejectedSaturated: s.rejectedSaturated.Load(),
		DeadlineExceeded:  s.deadlineExceeded.Load(),
		InFlight:          s.inFlight.Load(),
		Queued:            s.queued.Load(),
		MaxInFlight:       s.cfg.MaxInFlight,
		MaxQueue:          s.cfg.MaxQueue,
		JobsDone:          jobsDone,
		JobsFailed:        jobsFailed,
		Mutations:         s.mutations.Load(),
		StandingQueries:   s.standing.Count(),
		StandingEvents:    s.standing.Events(),
		StandingLagged:    s.standing.Lagged(),
		StandingEvals:     s.standing.Evals(),
		StandingNotified:  s.standing.Notified(),
		Cache:             s.cache.stats(),
		Latency:           s.lat.stats(),
		DatasetStats:      s.metrics.keyedSnapshot(),
		Stages:            s.metrics.stageSnapshot(),
	}
}

// logger is the structured logger for server-originated records (slow
// queries); Config.Logger when set, the process default otherwise.
func (s *Server) logger() *slog.Logger {
	if s.cfg.Logger != nil {
		return s.cfg.Logger
	}
	return slog.Default()
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
