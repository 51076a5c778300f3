package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"path/filepath"
	"sync"
	"time"

	"roadsocial/client"
	"roadsocial/internal/mac"
	"roadsocial/internal/mutate"
	"roadsocial/internal/standing"
)

// The write path. POST /v1/datasets/{name}/edges applies a MutateRequest —
// edge inserts and deletes, attribute updates, location moves — as one
// atomic batch; DELETE on the same path is the delete-only form. The
// discipline is the mutate package's apply-first, journal-second,
// install-third: the batch is validated by applying it to a copy-on-write
// scratch network (concurrent searches keep reading the old one), the
// accepted ops are fsynced to the dataset's journal, and only then is the
// new network installed and the prepared cache selectively invalidated.

// maxMutationOps bounds the ops of one mutation request, mirroring
// MaxBatchItems on the read side: a public endpoint must not let one request
// hold a dataset's write lock indefinitely.
const maxMutationOps = 1024

// RouteMutate is the metrics route label of the write path.
const RouteMutate = "mutate"

// mutState serializes and persists one dataset's mutations. st is nil until
// the first live mutation (lazy InitState: datasets that never mutate pay
// for no decompositions); journal is nil when Config.MutationLogDir is
// unset (mutations then apply without durability).
type mutState struct {
	mu      sync.Mutex
	st      *mutate.State
	journal *mutate.Journal
}

// close releases the journal file handle without deleting the file — for a
// registration that lost the name race after opening it (the registered
// dataset keeps its own handle on its own journal).
func (ms *mutState) close() {
	if ms.journal != nil {
		_ = ms.journal.Close()
	}
}

// drop closes the journal and deletes its file — the dataset is being
// unregistered, and a re-create under the same name must start fresh.
func (ms *mutState) drop() {
	if ms.journal != nil {
		_ = ms.journal.Remove()
	}
}

// journalPath is the dataset's journal file. The name is path-escaped so a
// hostile dataset name cannot traverse out of the log directory.
func journalPath(dir, name string) string {
	return filepath.Join(dir, url.PathEscape(name)+".mlog")
}

// openMutations builds a dataset's mutation state at registration. With a
// log directory configured it opens (creating or compacting) the dataset's
// journal at base version and replays any surviving records onto the
// network, returning the replayed network and version; without one it
// returns the inputs untouched.
func (s *Server) openMutations(name string, net *mac.Network, base uint64) (*mutState, *mac.Network, uint64, error) {
	ms := &mutState{}
	if s.cfg.MutationLogDir == "" {
		return ms, net, base, nil
	}
	j, recs, err := mutate.OpenJournal(journalPath(s.cfg.MutationLogDir, name), base)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("service: dataset %q mutation journal: %w", name, err)
	}
	version := base
	if len(recs) > 0 {
		// Replay mode: State.Core stays nil, so Apply performs the structural
		// mutations only; full decompositions are seeded lazily at the first
		// live mutation.
		st := &mutate.State{Version: base}
		ops := make([]mutate.Op, len(recs))
		for i, r := range recs {
			ops[i] = r.Op
		}
		replayed, _, err := mutate.Apply(net, st, ops)
		if err != nil {
			_ = j.Close()
			return nil, nil, 0, fmt.Errorf("service: dataset %q journal replay: %w", name, err)
		}
		net = replayed
		version = st.Version
		s.logger().Info("mutation journal replayed",
			"dataset", name, "ops", len(recs), "version", version)
	}
	ms.journal = j
	return ms, net, version, nil
}

// Mutate applies one mutation batch to a dataset — the transport-agnostic
// core of POST and DELETE /v1/datasets/{name}/edges. The batch is atomic
// (any invalid op rejects the whole batch with nothing journaled or
// visible) and ordered: inserts, then deletes, then attribute updates, then
// moves. Concurrent searches are never disturbed — they keep the network
// pointer they resolved and report the version it carried. requestID is the
// X-Request-ID of the HTTP request that carried the batch ("" for none),
// threaded into the standing-query eval job (and its log records) the batch
// may trigger.
func (s *Server) Mutate(name string, req *client.MutateRequest, requestID string) (*client.MutateResponse, error) {
	start := time.Now()
	resp, err := s.mutate(name, req, requestID)
	outcome := OutcomeOK
	if err != nil {
		outcome = client.CodeForStatus(statusOf(err))
	}
	dataset := name
	if dataset == "" || (err != nil && !s.holdsDataset(dataset)) {
		dataset = UnknownDataset
	}
	s.metrics.record(dataset, "", RouteMutate, outcome, msSince(start))
	if resp != nil {
		resp.ElapsedMs = msSince(start)
	}
	return resp, err
}

func (s *Server) mutate(name string, req *client.MutateRequest, requestID string) (*client.MutateResponse, error) {
	ops, err := opsFromRequest(req)
	if err != nil {
		return nil, err
	}
	for {
		e, err := s.network(name)
		if err != nil {
			return nil, err
		}
		ms := e.mut
		ms.mu.Lock()
		// Re-resolve under the dataset's write lock: every install happens
		// while holding it, so cur is the latest state. A delete or
		// delete + re-create meanwhile means this ms no longer governs the
		// registered entry — retry against the current one.
		cur, err := s.network(name)
		if err != nil {
			ms.mu.Unlock()
			return nil, err
		}
		if cur.mut != ms {
			ms.mu.Unlock()
			continue
		}
		resp, err := s.mutateLocked(name, cur, ms, ops, requestID)
		ms.mu.Unlock()
		return resp, err
	}
}

// mutateLocked runs one batch under the dataset's write lock.
func (s *Server) mutateLocked(name string, cur dsEntry, ms *mutState, ops []mutate.Op, requestID string) (*client.MutateResponse, error) {
	if ms.st == nil {
		ms.st = mutate.InitState(cur.net.Social, cur.version)
	}
	// Apply straight onto the committed cohesiveness state: Apply records an
	// undo log as it goes, so a failed op mid-batch rolls itself back and a
	// journal failure below reverts explicitly. No O(edges) state clone —
	// the write path's cost stays proportional to the affected subcore.
	newNet, sum, err := mutate.Apply(cur.net, ms.st, ops)
	if err != nil {
		return nil, invalidf("dataset %q: %v", name, err)
	}
	if ms.journal != nil {
		recs := make([]mutate.Record, len(ops))
		for i, op := range ops {
			recs[i] = mutate.Record{Version: cur.version + uint64(i) + 1, Op: op}
		}
		if err := ms.journal.Append(recs); err != nil {
			// Nothing installed: the dataset keeps serving its old state, and
			// the client knows the batch was not accepted.
			sum.Revert(ms.st)
			return nil, fmt.Errorf("service: dataset %q journal append: %w", name, err)
		}
	}
	// Install: swap the entry under the registry lock (gen unchanged — the
	// prepared-cache keys stay live; stale ones are invalidated below).
	s.mu.Lock()
	e, ok := s.nets[name]
	if ok && e.mut == ms {
		e.net = newNet
		e.version = ms.st.Version
		s.nets[name] = e
	}
	s.mu.Unlock()
	if !ok {
		// Deleted while the batch was applying; the journal went with it.
		return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}

	invalidated := s.cache.invalidate(name, invalidationPred(sum, newNet), !sum.AttrOnlyBatch())
	s.mutations.Add(int64(sum.Applied))

	// Match the batch against registered standing queries. Marked queries are
	// re-evaluated off the write path on the job runner; a burst of batches
	// coalesces onto one pass (only the first Notify of the burst starts it).
	if matched, start := s.standing.Notify(name, func(e *standing.Entry) bool {
		return affectsStanding(sum, e)
	}); start {
		s.submitStandingEval(name, requestID)
	} else if matched > 0 {
		s.logger().Debug("standing eval coalesced",
			"dataset", name, "matched", matched, "request_id", requestID)
	}
	return &client.MutateResponse{
		Dataset:      name,
		Version:      ms.st.Version,
		Applied:      sum.Applied,
		CoreChanged:  sum.CoreChanged,
		TrussChanged: sum.TrussChanged,
		Invalidated:  invalidated,
	}, nil
}

// opsFromRequest validates the request shape and flattens it into ordered
// ops: inserts, deletes, attribute updates, moves.
func opsFromRequest(req *client.MutateRequest) ([]mutate.Op, error) {
	total := len(req.Inserts) + len(req.Deletes) + len(req.Attrs) + len(req.Moves)
	if total == 0 {
		return nil, invalidf("empty mutation (no inserts, deletes, attrs, or moves)")
	}
	if total > maxMutationOps {
		return nil, invalidf("%d mutation ops exceed the limit of %d", total, maxMutationOps)
	}
	ops := make([]mutate.Op, 0, total)
	for _, e := range req.Inserts {
		ops = append(ops, mutate.Op{Kind: mutate.InsertEdge, U: e[0], V: e[1]})
	}
	for _, e := range req.Deletes {
		ops = append(ops, mutate.Op{Kind: mutate.DeleteEdge, U: e[0], V: e[1]})
	}
	for _, a := range req.Attrs {
		if len(a.Attrs) == 0 {
			return nil, invalidf("attrs update for user %d carries no attributes", a.User)
		}
		ops = append(ops, mutate.Op{Kind: mutate.SetAttrs, U: a.User, Attrs: a.Attrs})
	}
	for _, m := range req.Moves {
		op := mutate.Op{Kind: mutate.MoveUser, U: m.User}
		if len(m.Edge) > 0 {
			if len(m.Edge) != 2 {
				return nil, invalidf("move for user %d: edge wants [u, v], got %d elements", m.User, len(m.Edge))
			}
			op.Loc = mutate.LocSpec{OnEdge: true, U: m.Edge[0], V: m.Edge[1], Off: m.Off}
		} else {
			op.Loc = mutate.LocSpec{U: m.Vertex}
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// serveMutate handles POST /v1/datasets/{name}/edges.
func (s *Server) serveMutate(w http.ResponseWriter, r *http.Request) {
	s.serveMutation(w, r, false)
}

// serveDeleteEdges handles DELETE /v1/datasets/{name}/edges: the delete-only
// form of the same batch endpoint.
func (s *Server) serveDeleteEdges(w http.ResponseWriter, r *http.Request) {
	s.serveMutation(w, r, true)
}

func (s *Server) serveMutation(w http.ResponseWriter, r *http.Request, deleteOnly bool) {
	var req client.MutateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if deleteOnly && (len(req.Inserts) > 0 || len(req.Attrs) > 0 || len(req.Moves) > 0) {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("DELETE accepts only deletes; use POST for mixed batches"))
		return
	}
	resp, err := s.Mutate(r.PathValue("name"), &req, RequestIDFrom(r))
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
