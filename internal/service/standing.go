package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"roadsocial/client"
	"roadsocial/internal/standing"
)

// Standing queries: registered MAC queries the server re-evaluates when a
// relevant mutation batch installs, pushing membership deltas to subscribers
// over SSE.
//
//	POST   /v1/datasets/{name}/queries             — register (201, initial snapshot)
//	GET    /v1/datasets/{name}/queries             — list
//	GET    /v1/datasets/{name}/queries/{id}        — get one (live result)
//	DELETE /v1/datasets/{name}/queries/{id}        — unregister (terminal event)
//	GET    /v1/datasets/{name}/queries/{id}/events — subscribe (SSE)
//
// Registration runs an initial evaluation inline (through the shared prepared
// cache — the same key a search would use) and the response carries the
// snapshot; from then on, mutation batches that pass the relevance test
// (relevance.go) mark the query pending and a coalescing job on the runner
// re-evaluates it at the latest installed version, publishing
// {version, joined, left} deltas.

// RouteStandingEval labels standing re-evaluations in the keyed metrics.
const RouteStandingEval = "standing_eval"

// standingHeartbeat is the SSE heartbeat-comment interval keeping idle event
// streams alive through proxies.
const standingHeartbeat = 15 * time.Second

// HeaderInternal marks a request originated by the shard router rather than
// a client — currently the registration mirrors that pin the primary's
// minted query id onto follower replicas. The router strips it from every
// inbound create, so a leaf behind a router only ever sees it on
// intra-cluster forwards; without it, any client could squat arbitrary query
// ids (409s for everyone else, collisions with router-pinned mirrors).
const HeaderInternal = "X-Roadsocial-Internal"

// CreateStandingQuery validates and registers a standing query, evaluates it
// once, and returns the resource with its initial result snapshot. req.ID is
// normally empty (the server mints "sq-N"); the shard router pins the
// primary's id when mirroring a registration to followers.
func (s *Server) CreateStandingQuery(name string, req *client.StandingQueryRequest, requestID string) (*client.StandingQuery, error) {
	sreq := &SearchRequest{Dataset: name, Algo: req.Algo, Q: req.Q, K: req.K, T: req.T, KTCoreOnly: true}
	if _, _, err := s.resolve(sreq); err != nil {
		return nil, err
	}
	e, err := s.standing.Register(name, client.StandingQuery{
		ID:   req.ID,
		Algo: reqAlgo(sreq),
		Q:    append([]int32(nil), req.Q...),
		K:    req.K,
		T:    req.T,
	})
	if err != nil {
		return nil, err
	}
	spec := e.Spec()
	members, version, err := s.evalStanding(name, spec)
	if err != nil {
		// No baseline, no resource: unwind the registration rather than hand
		// back a query whose first delta would diff against nothing.
		_ = s.standing.Delete(name, spec.ID, "registration failed")
		return nil, err
	}
	s.standing.RecordInitial(name, e, members, version)
	res := e.Resource()
	s.logger().Info("standing query registered",
		"dataset", name, "query", res.ID, "algo", string(res.Algo),
		"k", res.K, "t", res.T, "members", len(res.Members),
		"version", version, "request_id", requestID)
	return &res, nil
}

// DeleteStandingQuery unregisters a query; its subscribers get a terminal
// event before their streams close.
func (s *Server) DeleteStandingQuery(name, id, requestID string) error {
	if err := s.standing.Delete(name, id, "query deleted"); err != nil {
		return err
	}
	s.logger().Info("standing query deleted",
		"dataset", name, "query", id, "request_id", requestID)
	return nil
}

// StandingQueries lists a dataset's registered queries with live results.
func (s *Server) StandingQueries(name string) (*client.StandingQueryList, error) {
	if _, err := s.network(name); err != nil {
		return nil, err
	}
	qs := s.standing.List(name)
	if qs == nil {
		qs = []client.StandingQuery{}
	}
	return &client.StandingQueryList{Dataset: name, Queries: qs}, nil
}

// submitStandingEval dispatches one coalescing eval pass for a dataset onto
// the job runner. The caller holds the registry's running flag (Notify
// returned startRun); a failed dispatch releases it so the next matching
// mutation retries — the pending marks themselves survive.
func (s *Server) submitStandingEval(name, requestID string) {
	_, err := s.jobs.Submit("", client.JobKindStandingEval, name, requestID,
		func(_ <-chan struct{}, progress func(string)) (*client.DatasetInfo, error) {
			n := s.runStandingEvals(name, requestID)
			progress(fmt.Sprintf("evaluated %d standing queries", n))
			return nil, nil
		})
	if err != nil {
		s.standing.AbandonRun(name)
		s.logger().Warn("standing eval dispatch failed",
			"dataset", name, "error", err, "request_id", requestID)
	}
}

// runStandingEvals drains the dataset's pending set, publishing deltas.
func (s *Server) runStandingEvals(name, requestID string) int {
	start := time.Now()
	n := s.standing.RunEvals(name,
		func(spec client.StandingQuery) ([]int32, uint64, error) {
			return s.evalStanding(name, spec)
		},
		func(id string, err error) {
			s.logger().Warn("standing eval failed",
				"dataset", name, "query", id, "error", err, "request_id", requestID)
		})
	if n > 0 {
		s.logger().Info("standing queries evaluated",
			"dataset", name, "evals", n, "duration_ms", msSince(start),
			"request_id", requestID)
	}
	return n
}

// evalStanding computes a standing query's current membership: the ktcore
// request a client would send, resolved and run through the same path, so a
// warm cache makes re-evaluation a lookup. It bypasses admission and the
// request counters like the write path that triggers it — boundedness comes
// from the job workers. An empty community is a result (empty membership),
// not an error. The returned version is the installed dataset version the
// evaluation resolved.
func (s *Server) evalStanding(name string, spec client.StandingQuery) (members []int32, version uint64, err error) {
	start := time.Now()
	req := &SearchRequest{Dataset: name, Algo: spec.Algo, Q: spec.Q, K: spec.K, T: spec.T, KTCoreOnly: true}
	members, version, err = s.evalStandingOnce(req)
	outcome := OutcomeOK
	if err != nil {
		outcome = client.CodeForStatus(statusOf(err))
	}
	s.metrics.record(name, string(reqVariant(req)), RouteStandingEval, outcome, msSince(start))
	return members, version, err
}

func (s *Server) evalStandingOnce(req *SearchRequest) ([]int32, uint64, error) {
	ds, epoch, err := s.resolve(req)
	if err != nil {
		return nil, 0, err
	}
	resp, err := s.run(req, ds, epoch, nil, nil)
	if err != nil {
		return nil, 0, err
	}
	return resp.KTCore, resp.Version, nil
}

// serveCreateStandingQuery handles POST /v1/datasets/{name}/queries.
func (s *Server) serveCreateStandingQuery(w http.ResponseWriter, r *http.Request) {
	var req client.StandingQueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.ID != "" && r.Header.Get(HeaderInternal) == "" {
		writeError(w, http.StatusBadRequest,
			errors.New("the id field is reserved for router-internal registration mirroring; leave it empty"))
		return
	}
	res, err := s.CreateStandingQuery(r.PathValue("name"), &req, RequestIDFrom(r))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, res)
}

// serveListStandingQueries handles GET /v1/datasets/{name}/queries.
func (s *Server) serveListStandingQueries(w http.ResponseWriter, r *http.Request) {
	list, err := s.StandingQueries(r.PathValue("name"))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, list)
}

// serveGetStandingQuery handles GET /v1/datasets/{name}/queries/{id}.
func (s *Server) serveGetStandingQuery(w http.ResponseWriter, r *http.Request) {
	e, ok := s.standing.Get(r.PathValue("name"), r.PathValue("id"))
	if !ok {
		writeServiceError(w, &standing.ErrUnknown{What: "query " + r.PathValue("id")})
		return
	}
	res := e.Resource()
	writeJSON(w, http.StatusOK, &res)
}

// serveDeleteStandingQuery handles DELETE /v1/datasets/{name}/queries/{id}.
func (s *Server) serveDeleteStandingQuery(w http.ResponseWriter, r *http.Request) {
	name, id := r.PathValue("name"), r.PathValue("id")
	if err := s.DeleteStandingQuery(name, id, RequestIDFrom(r)); err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id, "dataset": name})
}

// serveStandingEvents handles GET /v1/datasets/{name}/queries/{id}/events:
// the SSE stream. Events carry monotone ids; a reconnecting client sends
// Last-Event-ID and missed events still in the ring replay atomically with
// the subscription (no gap, no duplicate). Events evicted past the resume
// point are announced with a "lagged" marker instead of being silently
// skipped. Heartbeat comments keep idle streams alive; a subscriber that
// falls DefaultSubBuffer events behind is dropped with a lagged marker
// rather than blocking the publisher.
func (s *Server) serveStandingEvents(w http.ResponseWriter, r *http.Request) {
	name, id := r.PathValue("name"), r.PathValue("id")
	e, ok := s.standing.Get(name, id)
	if !ok {
		writeServiceError(w, &standing.ErrUnknown{What: "query " + id})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("response writer does not support streaming"))
		return
	}
	var lastID uint64
	resume := false
	if v := r.Header.Get(client.HeaderLastEventID); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s %q: %w", client.HeaderLastEventID, v, err))
			return
		}
		lastID, resume = n, true
	}
	sub, replay, gap := e.Hub().Subscribe(lastID, resume)
	defer sub.Cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	if gap {
		if writeSSE(w, client.QueryEvent{Lagged: true, Reason: "resume window evicted"}) != nil {
			return
		}
	}
	terminal := false
	for _, ev := range replay {
		if writeSSE(w, ev) != nil {
			return
		}
		terminal = terminal || ev.Terminal
	}
	flusher.Flush()
	s.logger().Info("standing subscriber connected",
		"dataset", name, "query", id, "resume", resume,
		"last_event_id", lastID, "replayed", len(replay),
		"request_id", RequestIDFrom(r))
	if terminal {
		return
	}

	hb := time.NewTicker(standingHeartbeat)
	defer hb.Stop()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case <-hb.C:
			if _, err := io.WriteString(w, ": hb\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case ev, open := <-sub.Events():
			if !open {
				if sub.Lagged() {
					_ = writeSSE(w, client.QueryEvent{Lagged: true, Reason: "subscriber buffer overflow"})
					flusher.Flush()
				}
				return
			}
			if writeSSE(w, ev) != nil {
				return
			}
			flusher.Flush()
			if ev.Terminal {
				return
			}
		}
	}
}

// writeSSE renders one event in SSE wire format: an id line (only for ring
// events — lagged markers carry none, so they never move the client's resume
// cursor), an event-name line, and the JSON payload.
func writeSSE(w io.Writer, ev client.QueryEvent) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	var b bytes.Buffer
	if ev.ID > 0 {
		fmt.Fprintf(&b, "id: %d\n", ev.ID)
	}
	name := client.EventDelta
	switch {
	case ev.Terminal:
		name = client.EventTerminal
	case ev.Lagged:
		name = client.EventLagged
	}
	fmt.Fprintf(&b, "event: %s\ndata: %s\n\n", name, data)
	_, err = w.Write(b.Bytes())
	return err
}
