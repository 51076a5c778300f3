package service

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"roadsocial/client"
	"roadsocial/internal/mac"
	"roadsocial/internal/standing"
)

// MaxRequestBody bounds request bodies. Search requests are small; a batch
// of MaxBatchItems fits comfortably. The shard router applies the same
// bound so single- and multi-shard deployments agree on the accepted
// request size.
const MaxRequestBody = 1 << 20

// Handler returns the HTTP API. Datasets are addressable resources, and
// long-running control-plane operations are job resources:
//
//	POST   /v1/datasets/{name}          — register from an on-disk spec (201;
//	                                      ?async=1 answers 202 with a job)
//	DELETE /v1/datasets/{name}          — unregister (200)
//	POST   /v1/datasets/{name}/search   — run a MAC search
//	POST   /v1/datasets/{name}/ktcore   — maximal cohesive-subgraph membership
//	POST   /v1/datasets/{name}/edges    — apply a mutation batch (journaled)
//	DELETE /v1/datasets/{name}/edges    — delete edges (delete-only batch)
//	GET    /v1/datasets/{name}/snapshot — export the built dataset (octet-stream)
//	PUT    /v1/datasets/{name}/snapshot — register from uploaded snapshot (201)
//	GET    /v1/datasets/{name}/hotkeys  — hottest prepared-cache keys
//	POST   /v1/datasets/{name}/queries  — register a standing query (201, snapshot)
//	GET    /v1/datasets/{name}/queries  — list standing queries
//	GET    /v1/datasets/{name}/queries/{id}        — one query, live result
//	DELETE /v1/datasets/{name}/queries/{id}        — unregister (terminal event)
//	GET    /v1/datasets/{name}/queries/{id}/events — subscribe (SSE)
//	GET    /v1/jobs/{id}                — poll a job
//	GET    /v1/jobs                     — list jobs
//	DELETE /v1/jobs/{id}                — cancel a job
//	POST   /v1/batch                    — N requests, one admission
//	GET    /v1/healthz                  — liveness + registered datasets
//	GET    /v1/stats                    — counters, cache, latency histogram
//	GET    /metrics                     — Prometheus exposition
//
// Saturation maps to 429, an exceeded deadline to 504, validation problems
// to 400, an unknown dataset or job to 404, a duplicate create to 409, and
// a missing or wrong bearer token (when Config.AuthToken is set) to 401;
// every error body is {"error": "...", "code": "..."} with the code drawn
// from the client package's Code* constants.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/datasets/{name}/search", func(w http.ResponseWriter, r *http.Request) {
		s.serveSearch(w, r, false)
	})
	mux.HandleFunc("POST /v1/datasets/{name}/ktcore", func(w http.ResponseWriter, r *http.Request) {
		s.serveSearch(w, r, true)
	})
	mux.HandleFunc("POST /v1/datasets/{name}/edges", s.serveMutate)
	mux.HandleFunc("DELETE /v1/datasets/{name}/edges", s.serveDeleteEdges)
	mux.HandleFunc("GET /v1/datasets/{name}/snapshot", s.serveSaveSnapshot)
	mux.HandleFunc("PUT /v1/datasets/{name}/snapshot", s.serveRestoreSnapshot)
	mux.HandleFunc("GET /v1/datasets/{name}/hotkeys", s.serveHotKeys)
	mux.HandleFunc("POST /v1/datasets/{name}/queries", s.serveCreateStandingQuery)
	mux.HandleFunc("GET /v1/datasets/{name}/queries", s.serveListStandingQueries)
	mux.HandleFunc("GET /v1/datasets/{name}/queries/{id}", s.serveGetStandingQuery)
	mux.HandleFunc("DELETE /v1/datasets/{name}/queries/{id}", s.serveDeleteStandingQuery)
	mux.HandleFunc("GET /v1/datasets/{name}/queries/{id}/events", s.serveStandingEvents)
	mux.HandleFunc("POST /v1/datasets/{name}", s.serveCreateDataset)
	mux.HandleFunc("DELETE /v1/datasets/{name}", s.serveDeleteDataset)
	mux.HandleFunc("GET /v1/jobs/{id}", s.serveGetJob)
	mux.HandleFunc("GET /v1/jobs", s.serveListJobs)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.serveCancelJob)
	mux.HandleFunc("POST /v1/batch", s.serveBatch)
	mux.HandleFunc("GET /v1/healthz", s.serveHealthz)
	mux.HandleFunc("GET /v1/stats", s.serveStats)
	mux.HandleFunc("GET /metrics", s.serveMetrics)
	h := RequireAuth(s.cfg.AuthToken, mux)
	if s.cfg.Logger != nil {
		h = AccessLog(s.cfg.Logger, h)
	}
	return WithRequestID(h)
}

// RequireAuth wraps a handler with shared-secret bearer auth: every request
// must carry "Authorization: Bearer <token>". An empty token returns h
// unchanged. cmd/macserver applies it at the listener for both leaf and
// routing tiers, so a fleet shares one secret end to end.
func RequireAuth(token string, h http.Handler) http.Handler {
	if token == "" {
		return h
	}
	want := []byte("Bearer " + token)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got := []byte(r.Header.Get("Authorization"))
		if subtle.ConstantTimeCompare(got, want) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="macserver"`)
			writeError(w, http.StatusUnauthorized, errors.New("missing or invalid bearer token"))
			return
		}
		h.ServeHTTP(w, r)
	})
}

// serveSearch handles the search and ktcore routes: decode, then run Do
// under the request's deadline against the dataset named in the URL path.
func (s *Server) serveSearch(w http.ResponseWriter, r *http.Request, ktCoreOnly bool) {
	var req SearchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	// The URL names the resource; a body dataset may restate but never
	// contradict it.
	dataset := r.PathValue("name")
	if req.Dataset != "" && req.Dataset != dataset {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("body dataset %q contradicts path dataset %q", req.Dataset, dataset))
		return
	}
	req.Dataset = dataset
	req.KTCoreOnly = ktCoreOnly

	cancel, stop := s.requestCancel(r, req.TimeoutMs)
	defer stop()
	start := time.Now()
	resp, tm, err := s.Do(&req, cancel)
	if err != nil {
		s.logSlow(r, &req, msSince(start), err)
		writeServiceError(w, err)
		return
	}
	// Encode before writing the header: Server-Timing must carry the encode
	// phase, and headers cannot follow the body. The trailing newline keeps
	// the body byte-identical to the json.Encoder path.
	encodeStart := time.Now()
	body, merr := json.Marshal(resp)
	if merr != nil {
		writeError(w, http.StatusInternalServerError, merr)
		return
	}
	tm.EncodeMs = msSince(encodeStart)
	s.metrics.recordStage(StageEncode, tm.EncodeMs)
	s.logSlow(r, &req, msSince(start), nil)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(client.HeaderServerTiming, tm.serverTiming())
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	_, _ = w.Write([]byte("\n"))
}

// logSlow emits the slow-query record: the full request key an operator
// needs to reproduce the offender.
func (s *Server) logSlow(r *http.Request, req *SearchRequest, ms float64, err error) {
	if s.cfg.SlowQuery <= 0 || time.Duration(ms*float64(time.Millisecond)) < s.cfg.SlowQuery {
		return
	}
	attrs := []any{
		"dataset", req.Dataset,
		"algo", string(reqAlgo(req)),
		"q", req.Q,
		"k", req.K,
		"t", req.T,
		"j", req.J,
		"duration_ms", ms,
		"request_id", RequestIDFrom(r),
	}
	if err != nil {
		attrs = append(attrs, "error", err.Error())
	}
	s.logger().Warn("slow query", attrs...)
}

func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	cancel, stop := s.requestCancel(r, req.TimeoutMs)
	defer stop()
	resp, err := s.DoBatch(&req, cancel)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) serveCreateDataset(w http.ResponseWriter, r *http.Request) {
	var spec DatasetSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad dataset spec: %w", err))
		return
	}
	name := r.PathValue("name")
	if AsyncRequested(r) {
		job, err := s.CreateDatasetAsync(name, &spec, RequestIDFrom(r))
		if err != nil {
			writeServiceError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, job)
		return
	}
	info, err := s.CreateDataset(name, &spec)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// AsyncRequested reports whether a create should answer 202 with a job
// resource instead of blocking until the dataset is built (the ?async=1
// query parameter; shared with the shard tier so both parse it alike).
func AsyncRequested(r *http.Request) bool {
	switch r.URL.Query().Get("async") {
	case "", "0", "false":
		return false
	default:
		return true
	}
}

// MaxSnapshotBody is the default bound on snapshot uploads (1 GiB): far
// beyond any JSON request, because a snapshot carries the dataset itself.
// Deployments expecting bigger datasets raise it via Config.MaxSnapshotBytes
// (-max-snapshot-bytes); the file/mmap register path has no body to bound.
const MaxSnapshotBody = 1 << 30

func (s *Server) serveSaveSnapshot(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// Existence is checked up front so a 404 can still be a clean JSON
	// answer; the stream itself cannot change status once bytes flow.
	if _, err := s.network(name); err != nil {
		writeServiceError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_ = s.SaveSnapshot(name, w)
}

func (s *Server) serveRestoreSnapshot(w http.ResponseWriter, r *http.Request) {
	info, err := s.CreateDatasetFromSnapshot(r.PathValue("name"),
		http.MaxBytesReader(w, r.Body, s.cfg.MaxSnapshotBytes))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// MaxHotKeys bounds how many prepared-cache residents the hotkeys endpoint
// reports: enough to carry a follower's first seconds of traffic, small
// enough that warming never competes with serving.
const MaxHotKeys = 32

func (s *Server) serveHotKeys(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	keys, err := s.HotKeys(name, MaxHotKeys)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	if keys == nil {
		keys = []client.HotKey{}
	}
	writeJSON(w, http.StatusOK, client.HotKeysResponse{Dataset: name, Keys: keys})
}

func (s *Server) serveGetJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, jobStatusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) serveListJobs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, JobList{Jobs: s.jobs.List()})
}

func (s *Server) serveCancelJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, jobStatusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) serveDeleteDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.RemoveDataset(name); err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

// requestCancel builds the cancel channel for one request: one channel
// carries both the deadline and the client disconnect — whichever fires
// first abandons the work at its next task boundary (mac.Query.Cancel
// semantics). stop releases the timer and the context hook.
func (s *Server) requestCancel(r *http.Request, timeoutMs int) (cancel chan struct{}, stop func()) {
	timeout := time.Duration(timeoutMs) * time.Millisecond
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	cancel = make(chan struct{})
	var once sync.Once
	abort := func() { once.Do(func() { close(cancel) }) }
	timer := time.AfterFunc(timeout, abort)
	unhook := context.AfterFunc(r.Context(), abort)
	return cancel, func() {
		timer.Stop()
		unhook()
	}
}

func (s *Server) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"datasets":       s.Datasets(),
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

func (s *Server) serveStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// serveMetrics renders the Prometheus exposition of this server. Note the
// route lives behind RequireAuth like every other: a scraper configures the
// same bearer token as any client.
func (s *Server) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", PromContentType)
	_ = WriteProm(w, []PromSet{{Stats: s.Stats()}})
}

// statusOf maps service errors onto HTTP status codes. Errors outside the
// known sentinels are server-side faults (500), not the client's.
func statusOf(err error) int {
	var standingUnknown *standing.ErrUnknown
	var standingExists *standing.ErrExists
	switch {
	case errors.As(err, &standingUnknown):
		return http.StatusNotFound
	case errors.As(err, &standingExists):
		return http.StatusConflict
	}
	switch {
	case errors.Is(err, ErrSaturated), errors.Is(err, ErrJobsSaturated):
		return http.StatusTooManyRequests
	case errors.Is(err, mac.ErrCanceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrUnknownDataset), errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, ErrDatasetExists):
		return http.StatusConflict
	case errors.Is(err, ErrInvalid):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// writeServiceError maps a Do/DoBatch/lifecycle error onto its HTTP answer.
func writeServiceError(w http.ResponseWriter, err error) {
	status := statusOf(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, status, err)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the canonical error body: the human-readable message
// plus the machine-readable code derived from the status (one mapping for
// every tier, client.CodeForStatus), so SDK callers branch on
// client.CodeOf instead of string-matching messages.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{
		"error": err.Error(),
		"code":  client.CodeForStatus(status),
	})
}
