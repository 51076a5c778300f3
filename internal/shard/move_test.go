package shard

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roadsocial/client"
	"roadsocial/internal/mac"
	"roadsocial/internal/road"
	"roadsocial/internal/service"
)

// moveRouter builds a 2-shard router whose services materialize any spec
// into the given prebuilt network, with a G-tree so snapshots carry an
// index.
func moveRouter(t testing.TB, net *mac.Network) (*Router, []*Local) {
	t.Helper()
	if net.Oracle == nil {
		net.Oracle = road.BuildGTree(net.Road, 0)
	}
	cfg := service.Config{
		MaxInFlight:    4,
		MaxQueue:       64,
		DefaultTimeout: 120 * time.Second,
		LoadSpec: func(name string, spec *service.DatasetSpec) (*mac.Network, uint64, error) {
			return net, 0, nil
		},
	}
	locals := []*Local{
		NewLocal("shard-0", service.New(cfg)),
		NewLocal("shard-1", service.New(cfg)),
	}
	rt, err := NewRouter([]Backend{locals[0], locals[1]}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rt, locals
}

// TestMoveZeroDowntime: a dataset moves between shards while a looping SDK
// client — retries disabled, so nothing papers over a gap — hammers it
// with searches; the client must observe zero non-2xx answers through the
// whole move, and afterwards the dataset lives only on the target.
func TestMoveZeroDowntime(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	rt, locals := moveRouter(t, net)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	ctx := context.Background()
	sdk := client.New(ts.URL, client.WithRetries(0))
	region := &client.RegionSpec{Lo: []float64{0.2, 0.2}, Hi: []float64{0.25, 0.25}}

	info, err := sdk.CreateDataset(ctx, "mover", &client.DatasetSpec{})
	if err != nil {
		t.Fatal(err)
	}
	src := rt.OwnerIndex("mover")
	if info.Shard != locals[src].Name() {
		t.Fatalf("created on %q, want %q", info.Shard, locals[src].Name())
	}
	tgt := 1 - src

	// Looping observers: every response must be 2xx. A mix of the
	// dataset-scoped search path and the warm ktcore path.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var observed atomic.Int64
	badc := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				if w%2 == 0 {
					_, err = sdk.Search(ctx, "mover", &client.SearchRequest{Q: q, K: k, T: tt, Region: region})
				} else {
					_, err = sdk.KTCore(ctx, "mover", &client.SearchRequest{Q: q, K: k, T: tt})
				}
				if err != nil {
					badc <- fmt.Errorf("observer %d iteration %d: %w", w, i, err)
					return
				}
				observed.Add(1)
			}
		}(w)
	}
	// Let the observers reach steady state before the move starts.
	for observed.Load() < 8 {
		time.Sleep(time.Millisecond)
	}

	job, err := sdk.MoveDataset(ctx, "mover", locals[tgt].Name())
	if err != nil {
		t.Fatalf("move submit: %v", err)
	}
	if job.Kind != client.JobKindMove || job.Dataset != "mover" {
		t.Fatalf("move job = %+v", job)
	}
	settled, err := sdk.WaitJob(ctx, job.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("move job: %v (job %+v)", err, settled)
	}
	if settled.Result == nil || settled.Result.Shard != locals[tgt].Name() {
		t.Fatalf("move result = %+v, want shard %s", settled.Result, locals[tgt].Name())
	}

	// Keep observing after the cutover, then stop.
	after := observed.Load()
	for observed.Load() < after+8 {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-badc:
		t.Fatalf("observer saw a non-2xx during the move: %v", err)
	default:
	}

	// The dataset now lives only on the target, and the router routes there.
	if rt.OwnerIndex("mover") != tgt {
		t.Fatalf("router still routes mover to %d", rt.OwnerIndex("mover"))
	}
	for _, ds := range mustDatasets(t, locals[src]) {
		if ds == "mover" {
			t.Fatal("source still holds the dataset after the move")
		}
	}
	found := false
	for _, ds := range mustDatasets(t, locals[tgt]) {
		if ds == "mover" {
			found = true
		}
	}
	if !found {
		t.Fatal("target does not hold the dataset after the move")
	}
	// The moved copy serves searches (cold cache, same results path).
	if _, err := sdk.Search(ctx, "mover", &client.SearchRequest{Q: q, K: k, T: tt, Region: region}); err != nil {
		t.Fatalf("search after move: %v", err)
	}

	// Moving back also works (the source copy was cleanly deleted).
	back, err := sdk.MoveDataset(ctx, "mover", locals[src].Name())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sdk.WaitJob(ctx, back.ID, 5*time.Millisecond); err != nil {
		t.Fatalf("move back: %v", err)
	}
	if rt.OwnerIndex("mover") != src {
		t.Fatal("move back did not flip the assignment")
	}

	// Error paths: unknown dataset 404, unknown shard 400, no-op move to
	// the current owner succeeds without copying.
	if _, err := sdk.MoveDataset(ctx, "ghost", locals[0].Name()); !client.IsNotFound(err) {
		t.Fatalf("move of unknown dataset: err=%v, want typed not_found", err)
	}
	if _, err := sdk.MoveDataset(ctx, "mover", "shard-99"); client.CodeOf(err) != client.CodeInvalid {
		t.Fatalf("move to unknown shard: err=%v, want invalid", err)
	}
	noop, err := sdk.MoveDataset(ctx, "mover", locals[src].Name())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sdk.WaitJob(ctx, noop.ID, 5*time.Millisecond); err != nil {
		t.Fatalf("no-op move: %v", err)
	}
}

// TestAssignmentsPersistAcrossRestart: with -assignments-file semantics, a
// move's flip lands on disk, and a fresh router (a restart) loads it and
// routes to the moved location with no SyncAssignments round.
func TestAssignmentsPersistAcrossRestart(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	rt, locals := moveRouter(t, net)
	path := filepath.Join(t.TempDir(), "assignments.json")
	if _, err := rt.PersistAssignments(path); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	ctx := context.Background()
	sdk := client.New(ts.URL)

	if _, err := sdk.CreateDataset(ctx, "pinned", &client.DatasetSpec{}); err != nil {
		t.Fatal(err)
	}
	src := rt.OwnerIndex("pinned")
	tgt := 1 - src
	job, err := sdk.MoveDataset(ctx, "pinned", locals[tgt].Name())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sdk.WaitJob(ctx, job.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh router over the same backends, fed only the file.
	rt2, err := NewRouter([]Backend{locals[0], locals[1]}, 0)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := rt2.PersistAssignments(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 1 {
		t.Fatalf("loaded %d assignments from disk, want 1", loaded)
	}
	if rt2.OwnerIndex("pinned") != tgt {
		t.Fatal("restarted router does not route to the moved location")
	}
	ts2 := httptest.NewServer(rt2.Handler())
	defer ts2.Close()
	if _, err := client.New(ts2.URL).Search(ctx, "pinned", &client.SearchRequest{
		Q: q, K: k, T: tt,
		Region: &client.RegionSpec{Lo: []float64{0.2, 0.2}, Hi: []float64{0.25, 0.25}},
	}); err != nil {
		t.Fatalf("search through restarted router: %v", err)
	}
}

// toggleBackend wraps a Backend and can be switched "down": probes fail
// and proxied requests answer 502, like an unreachable remote peer.
type toggleBackend struct {
	Backend
	down atomic.Bool
}

func (b *toggleBackend) Datasets() ([]string, error) {
	if b.down.Load() {
		return nil, fmt.Errorf("%w: %s (simulated outage)", ErrShardDown, b.Name())
	}
	return b.Backend.Datasets()
}

func (b *toggleBackend) Stats() (service.Stats, error) {
	if b.down.Load() {
		return service.Stats{}, fmt.Errorf("%w: %s (simulated outage)", ErrShardDown, b.Name())
	}
	return b.Backend.Stats()
}

func (b *toggleBackend) ServeAPI(w http.ResponseWriter, r *http.Request) {
	if b.down.Load() {
		writeError(w, http.StatusBadGateway, fmt.Errorf("%w: %s (simulated outage)", ErrShardDown, b.Name()))
		return
	}
	b.Backend.ServeAPI(w, r)
}

// TestResyncOnPeerRecovery: a router that started while a peer was down
// (so startup sync learned nothing) re-adopts the peer's off-ring datasets
// the moment a probe sees it healthy again — previously those datasets
// silently routed to their ring owner and 404ed forever.
func TestResyncOnPeerRecovery(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	cfg := service.Config{DefaultTimeout: 120 * time.Second}
	locals := []*Local{
		NewLocal("shard-0", service.New(cfg)),
		NewLocal("shard-1", service.New(cfg)),
	}
	// Find a dataset name whose ring owner is shard-0, then register it on
	// shard-1 — an off-ring resident, as a pre-outage move would leave it.
	probe, err := NewRouter([]Backend{locals[0], locals[1]}, 0)
	if err != nil {
		t.Fatal(err)
	}
	name := ""
	for i := 0; i < 100; i++ {
		cand := fmt.Sprintf("wanderer-%d", i)
		if probe.OwnerIndex(cand) == 0 {
			name = cand
			break
		}
	}
	if name == "" {
		t.Fatal("no candidate name owned by shard-0")
	}
	if err := locals[1].Server().AddDataset(name, net); err != nil {
		t.Fatal(err)
	}

	flaky := &toggleBackend{Backend: locals[1]}
	flaky.down.Store(true)
	rt, err := NewRouter([]Backend{locals[0], flaky}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Router (re)start during the outage: sync learns nothing about the
	// peer and marks it down.
	if pins := rt.SyncAssignments(); pins != 0 {
		t.Fatalf("sync during outage recorded %d pins", pins)
	}
	if rt.OwnerIndex(name) != 0 {
		t.Fatal("dataset should fall back to its ring owner while the peer is down")
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	ctx := context.Background()
	sdk := client.New(ts.URL, client.WithRetries(0))
	region := &client.RegionSpec{Lo: []float64{0.2, 0.2}, Hi: []float64{0.25, 0.25}}
	req := &client.SearchRequest{Q: q, K: k, T: tt, Region: region}
	if _, err := sdk.Search(ctx, name, req); client.StatusOf(err) != http.StatusNotFound {
		t.Fatalf("search during outage: err=%v, want 404 from the ring owner", err)
	}

	// Peer recovers; the next stats probe observes it and re-syncs.
	flaky.down.Store(false)
	rt.Stats()
	if rt.OwnerIndex(name) != 1 {
		t.Fatal("recovered peer's dataset was not re-adopted into the assignment table")
	}
	if _, err := sdk.Search(ctx, name, req); err != nil {
		t.Fatalf("search after recovery: %v", err)
	}

	// The healthz probe path re-syncs too: knock it down and back up, and
	// poke /v1/healthz this time.
	flaky.down.Store(true)
	rt.Stats() // marks down
	flaky.down.Store(false)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rt.OwnerIndex(name) != 1 {
		t.Fatal("healthz probe did not re-sync the recovered peer")
	}
}

// raceBackend holds a dataset's edges POST until the shard has served a
// snapshot export (or about 3 s pass without one), and holds the dataset's
// DELETE until that write has returned: the interleaving in which a write
// checked the move claim before a move took it, and reached the source
// after the move's copy.
type raceBackend struct {
	Backend
	arrived, exported, written chan struct{}
	arriveOnce, exportOnce     sync.Once
}

func (b *raceBackend) ServeAPI(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/edges"):
		b.arriveOnce.Do(func() { close(b.arrived) })
		select {
		case <-b.exported:
		case <-time.After(3 * time.Second):
		}
		b.Backend.ServeAPI(w, r)
		close(b.written)
		return
	case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/snapshot"):
		b.Backend.ServeAPI(w, r)
		b.exportOnce.Do(func() { close(b.exported) })
		return
	case r.Method == http.MethodDelete && !strings.HasSuffix(r.URL.Path, "/edges"):
		select {
		case <-b.written:
		case <-time.After(10 * time.Second):
		}
	}
	b.Backend.ServeAPI(w, r)
}

// TestMoveKeepsRacingWrite: a write that races a move is either refused or
// carried to the target. The write reaches the source while the move
// starts; the router must not acknowledge it and then serve the moved
// dataset without it.
func TestMoveKeepsRacingWrite(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	_, locals := moveRouter(t, net)
	rb := make([]*raceBackend, len(locals))
	backends := make([]Backend, len(locals))
	for i, l := range locals {
		rb[i] = &raceBackend{Backend: l, arrived: make(chan struct{}), exported: make(chan struct{}), written: make(chan struct{})}
		backends[i] = rb[i]
	}
	rt, err := NewRouter(backends, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	ctx := context.Background()
	sdk := client.New(ts.URL, client.WithRetries(0))
	if _, err := sdk.CreateDataset(ctx, "mover", &client.DatasetSpec{}); err != nil {
		t.Fatal(err)
	}
	src := rt.OwnerIndex("mover")
	var iu, iv int32 = -1, -1
	for v := 1; v < net.Social.N() && iu < 0; v++ {
		if !net.Social.HasEdge(0, v) {
			iu, iv = 0, int32(v)
		}
	}
	if iu < 0 {
		t.Fatal("no missing edge in test network")
	}

	type mutateResult struct {
		res *client.MutateResponse
		err error
	}
	done := make(chan mutateResult, 1)
	go func() {
		res, err := sdk.Mutate(ctx, "mover", &client.MutateRequest{Inserts: [][2]int32{{iu, iv}}})
		done <- mutateResult{res, err}
	}()
	<-rb[src].arrived
	job, err := sdk.MoveDataset(ctx, "mover", locals[1-src].Name())
	if err != nil {
		t.Fatalf("move submit: %v", err)
	}
	if _, err := sdk.WaitJob(ctx, job.ID, 5*time.Millisecond); err != nil {
		t.Fatalf("move job: %v", err)
	}
	m := <-done
	if m.err != nil {
		if client.IsConflict(m.err) {
			return // refused, never acknowledged
		}
		t.Fatalf("mutate: %v", m.err)
	}
	got, err := sdk.KTCore(ctx, "mover", &client.SearchRequest{Q: q, K: k, T: tt})
	if err != nil {
		t.Fatal(err)
	}
	if got.Version < m.res.Version {
		t.Fatalf("write acknowledged at version %d, moved dataset serves version %d", m.res.Version, got.Version)
	}
}
