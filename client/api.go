// Package client is the typed Go SDK for the MAC query service and its
// shard tier: one canonical wire contract (this file) plus a Client
// (client.go) that speaks it. Every HTTP caller in the repository —
// cmd/macsearch, the shard tier's remote probes, the experiment load
// generator, and the examples — goes through this package, so the JSON
// schema has exactly one definition.
//
// The resource-oriented API (v1):
//
//	POST   /v1/datasets/{name}           register a dataset from an on-disk spec
//	POST   /v1/datasets/{name}?async=1   the same, as a 202 job resource
//	DELETE /v1/datasets/{name}           unregister a dataset
//	POST   /v1/datasets/{name}/search    MAC search against one dataset
//	POST   /v1/datasets/{name}/ktcore    maximal cohesive-subgraph membership
//	POST   /v1/datasets/{name}/edges     apply mutations (edge inserts/deletes,
//	                                     attribute updates, location moves)
//	DELETE /v1/datasets/{name}/edges     delete edges (sugar over the same path)
//	GET    /v1/datasets/{name}/snapshot  export the built dataset as a snapshot
//	PUT    /v1/datasets/{name}/snapshot  register from an uploaded snapshot
//	POST   /v1/datasets/{name}/move     (router) move a dataset between shards
//	GET    /v1/jobs/{id}                 poll a control-plane job
//	GET    /v1/jobs                      list control-plane jobs
//	DELETE /v1/jobs/{id}                 cancel a control-plane job
//	POST   /v1/batch                     N heterogeneous requests, one admission
//	GET    /v1/healthz                   liveness + registered datasets
//	GET    /v1/stats                     counters, cache, latency histogram
package client

import (
	"math"
	"time"
)

// Algo names the search algorithm of a request.
type Algo string

const (
	// AlgoGlobal is the exact DFS-based search (default).
	AlgoGlobal Algo = "global"
	// AlgoLocal is the local search framework (faster, sound, not complete).
	AlgoLocal Algo = "local"
	// AlgoTruss is the k-truss variant (global search on the truss engine).
	AlgoTruss Algo = "truss"
)

// Cache outcomes reported per response.
const (
	CacheHit  = "hit"
	CacheMiss = "miss"
)

// Batch item operations.
const (
	OpSearch = "search"
	OpKTCore = "ktcore"
)

// Machine-readable error codes carried in every error body alongside the
// message ({"error": "...", "code": "..."}), so callers branch on the code
// instead of string-matching messages. APIError.Code carries them; servers
// predating the field map onto a code derived from the HTTP status.
const (
	CodeInvalid      = "invalid"      // 400
	CodeUnauthorized = "unauthorized" // 401
	CodeNotFound     = "not_found"    // 404
	CodeConflict     = "conflict"     // 409
	CodeSaturated    = "saturated"    // 429
	CodeShardDown    = "shard_down"   // 502
	CodeDeadline     = "deadline"     // 504
	CodeInternal     = "internal"     // anything else
)

// Job states. A job moves pending → running → done or failed; canceling a
// pending job fails it immediately, canceling a running one asks its work
// to stop at the next phase boundary.
const (
	JobPending = "pending"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// Job kinds.
const (
	JobKindCreate    = "create"
	JobKindMove      = "move"
	JobKindReplicate = "replicate"
	// JobKindStandingEval is a coalesced standing-query re-evaluation pass
	// over one dataset, submitted by the mutation install path.
	JobKindStandingEval = "standing_eval"
)

// HeaderFailedOver is set on a response the shard router served from a
// follower replica because the primary answered 502 (or was unreachable);
// its value is the shard that actually answered. Clients that never see it
// are talking to a healthy primary.
const HeaderFailedOver = "X-Failed-Over"

// HeaderRequestID carries the request ID. A client may set it to correlate
// its own logs with the server's; the edge generates one otherwise. Every
// tier propagates the ID unchanged — router to leaf to job record — and
// echoes it on the response, so one grep follows a request through a
// failover.
const HeaderRequestID = "X-Request-ID"

// HeaderServerTiming is the standard Server-Timing response header; search
// responses carry the per-phase breakdown (queue;dur=..., prepare;dur=...,
// search;dur=..., encode;dur=...) in milliseconds.
const HeaderServerTiming = "Server-Timing"

// Job is an asynchronous control-plane operation as a pollable resource:
// POST /v1/datasets/{name}?async=1 and POST /v1/datasets/{name}/move answer
// 202 with one, and GET /v1/jobs/{id} tracks it to completion.
type Job struct {
	ID      string `json:"id"`
	Kind    string `json:"kind"`    // "create", "move", or "replicate"
	Dataset string `json:"dataset"` // the dataset the job operates on
	State   string `json:"state"`   // pending, running, done, failed
	// Progress names the phase a running job is in (e.g. "loading",
	// "snapshot", "cutover").
	Progress string `json:"progress,omitempty"`
	// Error is set when State is failed.
	Error string `json:"error,omitempty"`
	// Result describes the dataset on success (create and move jobs).
	Result *DatasetInfo `json:"result,omitempty"`
	// RequestID is the X-Request-ID of the HTTP request that submitted the
	// job, when it was submitted over HTTP — the link that lets one grep
	// follow a create or move from the edge into the control plane.
	RequestID string `json:"request_id,omitempty"`

	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
}

// Done reports whether the job has settled (done or failed).
func (j *Job) Done() bool { return j.State == JobDone || j.State == JobFailed }

// MoveRequest is the body of POST /v1/datasets/{name}/move: the shard the
// dataset should live on next. Only the shard router serves moves.
type MoveRequest struct {
	Shard string `json:"shard"`
}

// JobList is the body of GET /v1/jobs.
type JobList struct {
	Jobs []Job `json:"jobs"`
}

// RegionSpec is the JSON form of an axis-parallel preference region
// [lo, hi] in the reduced (d-1)-dimensional weight domain.
type RegionSpec struct {
	Lo []float64 `json:"lo"`
	Hi []float64 `json:"hi"`
}

// SearchRequest is the body of the search and ktcore endpoints. The dataset
// name lives in the URL path; a non-empty Dataset field must then match the
// path (batch items carry it in the body instead).
type SearchRequest struct {
	// Dataset names a registered dataset. Optional on the search and ktcore
	// routes, required in batch items.
	Dataset string `json:"dataset,omitempty"`
	// Q are the query vertices (social ids).
	Q []int32 `json:"q"`
	// K is the coreness (or truss) threshold.
	K int `json:"k"`
	// T is the query-distance threshold.
	T float64 `json:"t"`
	// Region is required for searches; ktcore requests ignore it.
	Region *RegionSpec `json:"region,omitempty"`
	// J asks for the top-j MACs per partition (<= 1: non-contained only).
	J int `json:"j,omitempty"`
	// Algo selects global (default), local, or truss.
	Algo Algo `json:"algo,omitempty"`
	// TimeoutMs is the request deadline; 0 selects the server default, and
	// values beyond the server maximum are clamped. Ignored inside batch
	// items (the batch deadline governs).
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Parallelism overrides the per-search worker count (0: server config).
	Parallelism int `json:"parallelism,omitempty"`
	// KTCoreOnly answers with the engine's maximal cohesive-subgraph
	// membership — the (k,t)-core, or the k-truss with algo=truss — and
	// skips the search. It never travels on the wire: the ktcore endpoints
	// (and batch op) set it server-side.
	KTCoreOnly bool `json:"-"`
}

// CellJSON is one output partition: the witness weight vector identifying
// the partition and its ranked communities.
type CellJSON struct {
	Witness []float64 `json:"witness"`
	Ranked  [][]int32 `json:"ranked"`
}

// SearchStats mirrors the engine effort counters (mac.Stats) on the wire.
// Field names are the JSON keys — the pre-SDK API serialized the engine
// struct directly, and the contract keeps that encoding.
type SearchStats struct {
	KTCoreSize    int
	KTCoreEdges   int
	DomGraphArcs  int
	Partitions    int
	Hyperplanes   int
	CellsExplored int
	Deletions     int
	Candidates    int
	Promising     int
	CascadeSims   int
}

// SearchResponse is the body of a successful search or ktcore request.
type SearchResponse struct {
	Dataset     string       `json:"dataset"`
	Algo        Algo         `json:"algo"`
	NoCommunity bool         `json:"no_community,omitempty"`
	KTCoreSize  int          `json:"ktcore_size"`
	KTCore      []int32      `json:"ktcore,omitempty"` // ktcore requests only
	Partitions  int          `json:"partitions"`
	Cells       []CellJSON   `json:"cells,omitempty"`
	Stats       *SearchStats `json:"stats,omitempty"`
	// Cache reports how the prepared state was obtained: hit (reused or
	// coalesced) or miss (prepared here).
	Cache     string  `json:"cache"`
	ElapsedMs float64 `json:"elapsed_ms"`
	// Version is the dataset mutation version this search ran against. An
	// in-flight search pins the version it started on; concurrent mutations
	// never tear its view. 0 on servers predating mutations.
	Version uint64 `json:"version,omitempty"`
}

// DatasetSpec tells the server how to materialize a dataset for
// POST /v1/datasets/{name}. Exactly one source must be set: the four file
// paths (resolved on the server's disk, in the cmd/macsearch text formats),
// a synthetic catalog name (available when the server wires the experiment
// harness in, as cmd/macserver does), or a snapshot path.
type DatasetSpec struct {
	// File-backed source.
	Social string `json:"social,omitempty"`
	Attrs  string `json:"attrs,omitempty"`
	Road   string `json:"road,omitempty"`
	Locs   string `json:"locs,omitempty"`

	// Synthetic catalog source (e.g. "SF+Slashdot").
	Synthetic string `json:"synthetic,omitempty"`
	Scale     string `json:"scale,omitempty"` // tiny, small, medium
	D         int    `json:"d,omitempty"`
	Seed      int64  `json:"seed,omitempty"`

	// Snapshot loads the dataset from an on-disk index snapshot (written by
	// Server.SaveSnapshot, GET /v1/datasets/{name}/snapshot, or macsearch
	// -save-snapshot; path resolved on the server's disk). Registration cost
	// is then I/O plus linear decoding — the G-tree inside the snapshot is
	// loaded, not rebuilt.
	Snapshot string `json:"snapshot,omitempty"`

	// GTree indexes the road network after loading. Snapshot-backed specs
	// ignore it: the snapshot either carries the built index or it doesn't.
	GTree bool `json:"gtree,omitempty"`

	// Shard pins the dataset to a named shard. Only the shard router
	// honors it (a leaf server ignores it); empty selects the consistent-
	// hash owner. Re-registering with a different pin is how a dataset
	// moves between shards without a restart.
	Shard string `json:"shard,omitempty"`

	// Replication is the number of shards that hold a copy of the dataset
	// (primary + followers). Only the shard router honors it; 0 selects the
	// router's -replication default, and values beyond the backend count are
	// clamped. Followers are synced from a primary snapshot by a background
	// replicate job and serve reads when the primary is unreachable.
	Replication int `json:"replication,omitempty"`
}

// DatasetInfo describes a registered dataset (the create response).
type DatasetInfo struct {
	Dataset      string `json:"dataset"`
	Users        int    `json:"users"`
	Friendships  int    `json:"friendships"`
	RoadVertices int    `json:"road_vertices"`
	// Shard is the owning shard, when created through a router.
	Shard string `json:"shard,omitempty"`
	// Replicas is the ordered replica set (primary first) when the dataset
	// is replicated through a router.
	Replicas []string `json:"replicas,omitempty"`
	// Version is the dataset's mutation version (0 for never-mutated
	// datasets).
	Version uint64 `json:"version,omitempty"`
}

// AttrUpdate replaces one user's attribute vector (dimension must match the
// dataset's).
type AttrUpdate struct {
	User  int32     `json:"user"`
	Attrs []float64 `json:"attrs"`
}

// LocationMove relocates a user in the road network: to road vertex Vertex
// when Edge is absent, or to offset Off along road edge Edge[0]–Edge[1] when
// present. Edge presence (not a zero value) selects the form, so vertex 0 is
// expressible.
type LocationMove struct {
	User   int32   `json:"user"`
	Vertex int32   `json:"vertex,omitempty"`
	Edge   []int32 `json:"edge,omitempty"`
	Off    float64 `json:"off,omitempty"`
}

// MutateRequest is the body of POST /v1/datasets/{name}/edges (and, with
// only Deletes set, DELETE on the same path): a batch of social-graph
// mutations applied in order — inserts, then explicit deletes, then
// attribute updates, then location moves — as one journaled unit. Each
// applied op bumps the dataset version by one; the batch is atomic (any
// invalid op rejects the whole batch before anything is journaled or
// visible).
type MutateRequest struct {
	// Inserts adds undirected friendship edges [u, v].
	Inserts [][2]int32 `json:"inserts,omitempty"`
	// Deletes removes undirected friendship edges [u, v].
	Deletes [][2]int32 `json:"deletes,omitempty"`
	// Attrs replaces attribute vectors.
	Attrs []AttrUpdate `json:"attrs,omitempty"`
	// Moves relocates users in the road network.
	Moves []LocationMove `json:"moves,omitempty"`
}

// MutateResponse reports an applied mutation batch.
type MutateResponse struct {
	Dataset string `json:"dataset"`
	// Version is the dataset version after the batch (one bump per op).
	Version uint64 `json:"version"`
	// Applied is the number of ops applied.
	Applied int `json:"applied"`
	// CoreChanged / TrussChanged count vertices and edges whose core/truss
	// numbers were updated by incremental maintenance.
	CoreChanged  int `json:"core_changed"`
	TrussChanged int `json:"truss_changed"`
	// Invalidated counts prepared-cache entries dropped because their seed
	// intersected the changed region.
	Invalidated int     `json:"invalidated"`
	ElapsedMs   float64 `json:"elapsed_ms"`
}

// HotKey is one prepared-cache resident of a dataset, decoded back into the
// request parameters that produced it. GET /v1/datasets/{name}/hotkeys
// reports them most-recently-used first; a router warms a freshly synced
// follower by replaying the primary's hot keys against it.
type HotKey struct {
	Q    []int32 `json:"q"`
	K    int     `json:"k"`
	T    float64 `json:"t"`
	Algo Algo    `json:"algo"`
}

// HotKeysResponse is the body of GET /v1/datasets/{name}/hotkeys.
type HotKeysResponse struct {
	Dataset string   `json:"dataset"`
	Keys    []HotKey `json:"keys"`
}

// BatchItem is one request of a batch: a search request plus the operation
// to run it under.
type BatchItem struct {
	// Op selects the operation: "search" (default) or "ktcore".
	Op string `json:"op,omitempty"`
	SearchRequest
}

// BatchRequest is the body of POST /v1/batch: N heterogeneous requests
// admitted as one unit. Items may target different datasets; a router
// splits the batch by owning shard and merges the answers in order.
type BatchRequest struct {
	Items []BatchItem `json:"items"`
	// TimeoutMs bounds the whole batch; 0 selects the server default.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Parallel opts the batch into intra-batch parallelism: items run on
	// extra workers, but only as many as the server's admission semaphore
	// has free slots at that moment — a parallel batch can never exceed the
	// in-flight budget, and on a busy server it degrades to the sequential
	// path. Results stay in request order.
	Parallel bool `json:"parallel,omitempty"`
}

// BatchItemResult is one item's outcome. Status carries the HTTP code the
// item would have received standalone; a failed item never fails the batch.
type BatchItemResult struct {
	Status   int             `json:"status"`
	Error    string          `json:"error,omitempty"`
	Response *SearchResponse `json:"response,omitempty"`
}

// BatchResponse is the body of a successful POST /v1/batch. The batch
// itself answers 200 whenever it was admitted and decoded; per-item
// failures live in Items.
type BatchResponse struct {
	Items     []BatchItemResult `json:"items"`
	OK        int               `json:"ok"`
	Failed    int               `json:"failed"`
	ElapsedMs float64           `json:"elapsed_ms"`
}

// CacheStats is a snapshot of the prepared-state cache counters.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	CostUsed  int64 `json:"cost_used"`
	MaxCost   int64 `json:"max_cost"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Evictions int64 `json:"evictions"`
}

// Latency histogram schema: fixed log-scale buckets shared by every server,
// so per-shard histograms merge by elementwise addition and fleet p50/p99
// are true quantiles rather than worst-of approximations. Bucket i counts
// latencies in (upper(i-1), upper(i)] where upper(i) = LatencyBucketMinMs *
// 2^(i/LatencyBucketsPerOctave); the last bucket absorbs everything beyond.
const (
	// LatencyBucketMinMs is the upper bound of bucket 0 (1 microsecond).
	LatencyBucketMinMs = 0.001
	// LatencyBucketsPerOctave is the resolution: 4 buckets per factor of 2,
	// so any quantile is within 2^(1/4) ≈ 19% of the true value.
	LatencyBucketsPerOctave = 4
	// LatencyBucketCount covers 1µs .. 2^27µs ≈ 134s; slower requests land
	// in the final bucket.
	LatencyBucketCount = 109
)

// LatencyBucketIndex returns the histogram bucket for a latency in ms.
func LatencyBucketIndex(ms float64) int {
	if ms <= LatencyBucketMinMs {
		return 0
	}
	i := int(math.Ceil(math.Log2(ms/LatencyBucketMinMs) * LatencyBucketsPerOctave))
	if i < 0 {
		return 0
	}
	if i >= LatencyBucketCount {
		return LatencyBucketCount - 1
	}
	return i
}

// LatencyBucketUpperMs returns bucket i's upper bound in ms.
func LatencyBucketUpperMs(i int) float64 {
	return LatencyBucketMinMs * math.Pow(2, float64(i)/LatencyBucketsPerOctave)
}

// LatencyStats is the latency slice of /v1/stats: exact count and mean plus
// the mergeable histogram the quantiles are read from.
type LatencyStats struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	// Buckets is the log-scale histogram (length LatencyBucketCount when
	// any latency has been recorded; omitted while empty).
	Buckets []int64 `json:"buckets,omitempty"`
}

// Merge folds another server's latency stats into s: counts and histogram
// buckets add, the mean combines count-weighted, and the quantiles are
// recomputed from the merged histogram.
func (s *LatencyStats) Merge(o LatencyStats) {
	total := s.Count + o.Count
	if total > 0 {
		s.MeanMs = (s.MeanMs*float64(s.Count) + o.MeanMs*float64(o.Count)) / float64(total)
	}
	s.Count = total
	if len(o.Buckets) > 0 && s.Buckets == nil {
		s.Buckets = make([]int64, LatencyBucketCount)
	}
	for i, n := range o.Buckets {
		if i < len(s.Buckets) {
			s.Buckets[i] += n
		}
	}
	s.P50Ms = s.Quantile(0.50)
	s.P99Ms = s.Quantile(0.99)
}

// Quantile reads the q-th quantile from the histogram: the upper bound of
// the first bucket whose cumulative count reaches q of the total. Returns 0
// when no latency has been recorded.
func (s *LatencyStats) Quantile(q float64) float64 {
	var total int64
	for _, n := range s.Buckets {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, n := range s.Buckets {
		cum += n
		if cum >= rank {
			return LatencyBucketUpperMs(i)
		}
	}
	return LatencyBucketUpperMs(len(s.Buckets) - 1)
}

// KeyStats is one request class of the keyed metrics registry: the latency
// histogram of every terminal answer for one (dataset, variant, route,
// outcome) combination. Unlike the top-level Latency slice (completed
// requests only, for backward compatibility), keyed histograms record every
// terminal status — a 429 or 504 lands in its own outcome series instead of
// vanishing, so p99 cannot lie by dropping rejected traffic.
type KeyStats struct {
	Dataset string `json:"dataset"`
	Variant string `json:"variant"` // engine variant: "core" or "truss"
	Route   string `json:"route"`   // "search", "ktcore", "batch", or "mutate"
	// Outcome is "ok" for 2xx answers, or the error code the request was
	// answered with (the Code* constants: "saturated", "deadline", ...).
	Outcome string       `json:"outcome"`
	Latency LatencyStats `json:"latency"`
}

// StatsKey builds the canonical map key of one request class. The key is
// pure derived data (the KeyStats fields joined with '|'); keeping it
// deterministic is what lets a router merge per-shard maps entry-wise.
func StatsKey(dataset, variant, route, outcome string) string {
	return dataset + "|" + variant + "|" + route + "|" + outcome
}

// MergeKeyStats folds src's keyed histograms into dst entry-wise (histogram
// addition per key, exactly as the totals latency merges) and returns dst,
// allocating it when nil and src is not.
func MergeKeyStats(dst, src map[string]KeyStats) map[string]KeyStats {
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(map[string]KeyStats, len(src))
	}
	for k, v := range src {
		d, ok := dst[k]
		if !ok {
			// Copy the buckets: the merged map must not alias src's slices.
			d = v
			d.Latency.Buckets = append([]int64(nil), v.Latency.Buckets...)
			dst[k] = d
			continue
		}
		d.Latency.Merge(v.Latency)
		dst[k] = d
	}
	return dst
}

// MergeStageStats folds src's per-phase histograms into dst (same contract
// as MergeKeyStats, keyed by stage name: queue, prepare, search, encode).
func MergeStageStats(dst, src map[string]LatencyStats) map[string]LatencyStats {
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(map[string]LatencyStats, len(src))
	}
	for k, v := range src {
		d, ok := dst[k]
		if !ok {
			d = v
			d.Buckets = append([]int64(nil), v.Buckets...)
			dst[k] = d
			continue
		}
		d.Merge(v)
		dst[k] = d
	}
	return dst
}

// Stats is the /v1/stats payload of one server. A shard router reports the
// same shape under "totals" plus a per-shard breakdown; Client.Stats
// normalizes both to this struct.
type Stats struct {
	UptimeSeconds     float64  `json:"uptime_seconds"`
	Datasets          []string `json:"datasets"`
	Requests          int64    `json:"requests"`
	Completed         int64    `json:"completed"`
	Failed            int64    `json:"failed"`
	RejectedSaturated int64    `json:"rejected_saturated"`
	DeadlineExceeded  int64    `json:"deadline_exceeded"`
	InFlight          int64    `json:"in_flight"`
	Queued            int64    `json:"queued"`
	MaxInFlight       int      `json:"max_in_flight"`
	MaxQueue          int      `json:"max_queue"`
	// Failovers counts reads a router answered from a follower replica
	// because the primary failed mid-request (router only).
	Failovers int64 `json:"failovers,omitempty"`
	// DrainTimeouts counts moves whose source drain timed out and fell back
	// to leaving both copies routable (router only).
	DrainTimeouts int64 `json:"drain_timeouts,omitempty"`
	// ReplicaSyncs counts replicate jobs a router submitted to copy a
	// dataset onto a follower (router only).
	ReplicaSyncs int64 `json:"replica_syncs,omitempty"`
	// JobsDone / JobsFailed count settled control-plane jobs by outcome.
	JobsDone   int64 `json:"jobs_done,omitempty"`
	JobsFailed int64 `json:"jobs_failed,omitempty"`
	// Mutations counts mutation ops applied across all datasets.
	Mutations int64 `json:"mutations,omitempty"`
	// StandingQueries is the number of registered standing queries (gauge).
	StandingQueries int64 `json:"standing_queries,omitempty"`
	// StandingEvents counts events published to standing-query streams.
	StandingEvents int64 `json:"standing_events,omitempty"`
	// StandingLagged counts subscribers dropped for falling behind.
	StandingLagged int64 `json:"standing_lagged,omitempty"`
	// StandingEvals counts standing-query re-evaluations.
	StandingEvals int64 `json:"standing_evals,omitempty"`
	// StandingNotified counts mutation batches that matched at least one
	// standing query; StandingNotified / StandingEvals is the coalescing
	// ratio (> 1 when bursts fold into fewer re-evaluations).
	StandingNotified int64      `json:"standing_notified,omitempty"`
	Cache            CacheStats `json:"cache"`
	// Latency is the histogram of completed (2xx) requests — the original
	// global series, kept completed-only so its meaning never shifts under
	// consumers.
	Latency LatencyStats `json:"latency"`
	// DatasetStats is the keyed registry: one latency histogram per
	// (dataset, variant, route, outcome), keyed by StatsKey. A router merges
	// per-shard maps entry-wise by histogram addition, so per-dataset fleet
	// quantiles are true quantiles.
	DatasetStats map[string]KeyStats `json:"dataset_stats,omitempty"`
	// Stages is the per-phase breakdown of completed requests (queue wait,
	// prepare, search, encode), keyed by stage name.
	Stages map[string]LatencyStats `json:"stages,omitempty"`
}

// Health is the normalized /v1/healthz payload: Datasets unions the
// per-shard lists when the server is a router.
type Health struct {
	Status   string   `json:"status"`
	Datasets []string `json:"datasets"`
}

// Standing queries: a registered MAC query the server re-evaluates when a
// relevant mutation lands, pushing result deltas to subscribers over SSE.
//
//	POST   /v1/datasets/{name}/queries              register, returns the resource
//	GET    /v1/datasets/{name}/queries              list
//	GET    /v1/datasets/{name}/queries/{id}         fetch one
//	DELETE /v1/datasets/{name}/queries/{id}         delete (terminal event to subscribers)
//	GET    /v1/datasets/{name}/queries/{id}/events  subscribe (text/event-stream)

// SSE event names of the standing-query event stream.
const (
	// EventDelta carries a result change: {version, joined, left,
	// members_changed}.
	EventDelta = "delta"
	// EventLagged marks a subscriber whose stream continuity broke: its
	// buffer overflowed, its Last-Event-ID predates the ring, or its cursor
	// is ahead of the server's numbering (failover onto a replica with an
	// independent counter). Re-read the resource to resynchronize; the SDK
	// resets its resume cursor on this marker so later events flow under
	// the server's numbering.
	EventLagged = "lagged"
	// EventTerminal is the last event of a stream: the query or its dataset
	// was deleted. The server closes the stream after it.
	EventTerminal = "terminal"
)

// HeaderLastEventID is the standard SSE resume header: a reconnecting
// subscriber sends the last event ID it processed and the server replays
// everything newer from the per-query ring buffer.
const HeaderLastEventID = "Last-Event-ID"

// StandingQueryRequest is the body of POST /v1/datasets/{name}/queries.
type StandingQueryRequest struct {
	// Algo selects the engine variant: global (default) or truss. (Standing
	// queries watch membership, so local is equivalent to global here.)
	Algo Algo `json:"algo,omitempty"`
	// Q are the query vertices (social ids).
	Q []int32 `json:"q"`
	// K is the coreness (or truss) threshold.
	K int `json:"k"`
	// T is the query-distance threshold.
	T float64 `json:"t"`
	// ID pins the assigned query id. Router-internal: the shard router
	// mirrors a registration to follower replicas under the primary's id so
	// a failover finds the query. Ordinary clients must leave it empty —
	// the server answers 400 for a client-supplied id (pinning is gated on
	// an internal marker only the router sets).
	ID string `json:"id,omitempty"`
}

// StandingQuery is the standing-query resource: the registered parameters
// plus the last evaluated result snapshot.
type StandingQuery struct {
	ID        string    `json:"id"`
	Dataset   string    `json:"dataset"`
	Algo      Algo      `json:"algo"`
	Q         []int32   `json:"q"`
	K         int       `json:"k"`
	T         float64   `json:"t"`
	CreatedAt time.Time `json:"created_at"`
	// Version is the dataset mutation version of the last evaluation.
	Version uint64 `json:"version"`
	// Members is the community membership at Version (nil when no community
	// exists or the query has not been evaluated yet).
	Members []int32 `json:"members,omitempty"`
	// NoCommunity reports an evaluated query whose community is empty.
	NoCommunity bool `json:"no_community,omitempty"`
}

// StandingQueryList is the body of GET /v1/datasets/{name}/queries.
type StandingQueryList struct {
	Dataset string          `json:"dataset"`
	Queries []StandingQuery `json:"queries"`
}

// QueryEvent is one SSE event of a standing-query stream. The wire carries
// the event ID in the SSE "id:" field (mirrored here) and the JSON body in
// "data:"; the event name is delta, lagged, or terminal.
type QueryEvent struct {
	// ID is the per-query monotonically increasing event id (first event is
	// 1). Synthetic lagged markers carry 0 so they never disturb a
	// subscriber's resume position.
	ID uint64 `json:"id,omitempty"`
	// Version is the dataset version the re-evaluation ran at.
	Version uint64 `json:"version"`
	// Joined / Left are the membership delta against the previous result.
	Joined []int32 `json:"joined,omitempty"`
	Left   []int32 `json:"left,omitempty"`
	// MembersChanged reports a non-empty delta.
	MembersChanged bool `json:"members_changed"`
	// Lagged marks a synthetic marker event: this subscriber missed events
	// (buffer overflow, or resume beyond the ring window).
	Lagged bool `json:"lagged,omitempty"`
	// Terminal marks the last event of the stream (query or dataset
	// deleted); Reason says why.
	Terminal bool   `json:"terminal,omitempty"`
	Reason   string `json:"reason,omitempty"`
}
