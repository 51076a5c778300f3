package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roadsocial/client"
	"roadsocial/internal/durable"
	"roadsocial/internal/mac"
	"roadsocial/internal/promtest"
	"roadsocial/internal/road"
	"roadsocial/internal/service"
)

// replicatedRouter builds a router over two real leaf macservers — separate
// http.Servers proxied through Remote backends, so killing one severs TCP
// connections the way a process death does — with replication 2. Returns the
// router, the leaf handles (for kill/restart), and the leaf servers.
type leafProc struct {
	addr string
	cfg  service.Config
	mu   sync.Mutex
	srv  *http.Server
	sv   *service.Server
}

func startLeaf(t testing.TB, cfg service.Config) *leafProc {
	t.Helper()
	p := &leafProc{cfg: cfg}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p.addr = ln.Addr().String()
	p.serveOn(ln)
	t.Cleanup(p.kill)
	return p
}

func (p *leafProc) serveOn(ln net.Listener) {
	p.mu.Lock()
	p.sv = service.New(p.cfg)
	p.srv = &http.Server{Handler: p.sv.Handler()}
	srv := p.srv
	p.mu.Unlock()
	go func() { _ = srv.Serve(ln) }()
}

// kill hard-closes the leaf's listener and every open connection — requests
// in flight die mid-body, exactly like a crashed process.
func (p *leafProc) kill() {
	p.mu.Lock()
	srv := p.srv
	p.mu.Unlock()
	if srv != nil {
		_ = srv.Close()
	}
}

// restart brings the leaf back on the same address with a fresh, empty
// service — a crashed process that lost its in-memory datasets.
func (p *leafProc) restart(t testing.TB) {
	t.Helper()
	p.kill()
	var ln net.Listener
	var err error
	for i := 0; i < 100; i++ {
		if ln, err = net.Listen("tcp", p.addr); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", p.addr, err)
	}
	p.serveOn(ln)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func holdsDataset(b Backend, name string) bool {
	ds, err := b.Datasets()
	return err == nil && contains(ds, name)
}

// TestFailoverZeroDowntime is the acceptance bar for replication: with
// replication 2, a looping SDK client — retries disabled, so nothing papers
// over a gap — observes zero non-2xx answers while one backend is killed
// mid-load; the recovered backend is later re-synced and rejoins the replica
// set.
func TestFailoverZeroDowntime(t *testing.T) {
	net_, q, k, tt := testNetwork(t)
	if net_.Oracle == nil {
		net_.Oracle = road.BuildGTree(net_.Road, 0)
	}
	cfg := service.Config{
		MaxInFlight:    4,
		MaxQueue:       64,
		DefaultTimeout: 120 * time.Second,
		LoadSpec: func(string, *service.DatasetSpec) (*mac.Network, uint64, error) {
			return net_, 0, nil
		},
	}
	leaves := []*leafProc{startLeaf(t, cfg), startLeaf(t, cfg)}
	backends := []Backend{
		NewRemote("shard-0", "http://"+leaves[0].addr, nil),
		NewRemote("shard-1", "http://"+leaves[1].addr, nil),
	}
	rt, err := NewRouter(backends, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetReplication(2)
	// The prober is deliberately NOT running yet: during the outage below
	// every read must survive via in-request failover alone. (With a fast
	// prober the dead primary can be rotated out before any observer ever
	// touches it, which would leave the failover path untested.) It starts
	// in the recovery phase, where rotation and re-sync are its job.
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	ctx := context.Background()
	sdk := client.New(ts.URL, client.WithRetries(0))
	region := &client.RegionSpec{Lo: []float64{0.2, 0.2}, Hi: []float64{0.25, 0.25}}

	info, err := sdk.CreateDataset(ctx, "durable", &client.DatasetSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Replicas) != 2 {
		t.Fatalf("create reported replicas %v, want 2 shards", info.Replicas)
	}
	primary := rt.OwnerIndex("durable")
	follower := 1 - primary
	// Redundancy arrives asynchronously; the kill below only makes sense
	// once the follower actually holds a copy.
	waitFor(t, 30*time.Second, "follower sync", func() bool {
		return holdsDataset(backends[follower], "durable")
	})

	// Looping observers on both read paths: every answer must be 2xx.
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
					_, err = sdk.Search(ctx, "durable", &client.SearchRequest{Q: q, K: k, T: tt, Region: region})
				} else {
					_, err = sdk.KTCore(ctx, "durable", &client.SearchRequest{Q: q, K: k, T: tt})
				}
				if err != nil {
					badc <- fmt.Errorf("observer %d iteration %d: %w", w, i, err)
					return
				}
				observed.Add(1)
			}
		}(w)
	}
	waitFor(t, 30*time.Second, "observers to reach steady state", func() bool {
		return observed.Load() >= 8
	})

	// Scrape the router's exposition before the fault: the failover counter
	// must be flat while both replicas are healthy.
	famsBefore := scrape(t, ts.URL)
	failoversBefore, err := promtest.Value(famsBefore, "macserver_router_failovers_total", nil)
	if err != nil {
		t.Fatalf("pre-fault scrape: %v", err)
	}

	// Kill the primary mid-load. Every request must keep answering 2xx via
	// in-router failover to the follower.
	leaves[primary].kill()
	before := observed.Load()
	waitFor(t, 30*time.Second, "reads during the outage", func() bool {
		select {
		case err := <-badc:
			t.Fatalf("observer saw a non-2xx after the kill: %v", err)
		default:
		}
		return observed.Load() >= before+20
	})
	// A failed-over read is counted when the follower's answer lands. Once
	// the primary is marked down, later reads go straight to the follower,
	// and fast ones can pass the mark above while a slow failed-over search
	// is still running, so wait for the count rather than read it at once.
	waitFor(t, 30*time.Second, "a failover to be counted despite a dead primary", func() bool {
		return rt.failovers.Load() > 0
	})
	// The fault is visible on /metrics: the counter moved, and the scrape
	// still parses strictly with one shard dark.
	famsAfter := scrape(t, ts.URL)
	failoversAfter, err := promtest.Value(famsAfter, "macserver_router_failovers_total", nil)
	if err != nil {
		t.Fatalf("post-fault scrape: %v", err)
	}
	if failoversAfter <= failoversBefore {
		t.Fatalf("failovers_total did not increase across the fault: before=%g after=%g",
			failoversBefore, failoversAfter)
	}
	if up, err := promtest.Value(famsAfter, "macserver_shard_up", map[string]string{
		"shard": backends[primary].Name(),
	}); err != nil || up != 0 {
		t.Fatalf("dead primary still scrapes as up: %v (%v)", up, err)
	}

	// Bring the backend back, empty, and start the prober: it re-adopts the
	// revived backend and re-syncs its follower copy; reads keep flowing
	// meanwhile.
	leaves[primary].restart(t)
	stopProber := rt.StartProber(20 * time.Millisecond)
	defer stopProber()
	waitFor(t, 30*time.Second, "revived backend re-sync", func() bool {
		return holdsDataset(backends[primary], "durable")
	})
	during := observed.Load()
	waitFor(t, 30*time.Second, "reads after recovery", func() bool {
		return observed.Load() >= during+20
	})
	close(stop)
	wg.Wait()
	select {
	case err := <-badc:
		t.Fatalf("observer saw a non-2xx: %v", err)
	default:
	}

	// The revived copy is a live replica again: the set covers both shards.
	set := rt.replicaSetFor("durable")
	if len(set) != 2 {
		t.Fatalf("replica set after recovery = %v, want both shards", set)
	}
	// And the failed-over answers advertised themselves.
	st := rt.Stats()
	if st.Totals.Failovers == 0 {
		t.Fatal("stats do not report the failovers")
	}
	if len(st.Replicas["durable"]) != 2 {
		t.Fatalf("stats replicas = %v, want 2 members", st.Replicas["durable"])
	}
}

// streamProbeBackend is a Backend pair for proving the snapshot transfer
// streams: the exporter writes a first chunk, then refuses to write the rest
// until the importer confirms it has consumed the first chunk. An
// implementation that buffers the whole export before starting the restore
// can never deliver that confirmation — the transfer deadlocks and the test
// times out — while a streaming implementation passes deterministically.
type streamProbeBackend struct {
	name     string
	serveAPI func(w http.ResponseWriter, r *http.Request)
}

func (b *streamProbeBackend) Name() string                  { return b.name }
func (b *streamProbeBackend) Stats() (service.Stats, error) { return service.Stats{}, nil }
func (b *streamProbeBackend) Datasets() ([]string, error)   { return nil, nil }
func (b *streamProbeBackend) ServeAPI(w http.ResponseWriter, r *http.Request) {
	b.serveAPI(w, r)
}

func TestReplicaSyncStreamsShardToShard(t *testing.T) {
	firstChunkConsumed := make(chan struct{})
	var received []byte
	exporter := &streamProbeBackend{name: "src", serveAPI: func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || !strings.HasSuffix(r.URL.Path, "/snapshot") {
			http.Error(w, "unexpected", http.StatusTeapot)
			return
		}
		w.WriteHeader(http.StatusOK)
		if _, err := io.WriteString(w, "first-half|"); err != nil {
			return
		}
		select {
		case <-firstChunkConsumed:
		case <-time.After(10 * time.Second):
			// Give up rather than leaking the goroutine; the importer never
			// saw the first chunk, so the transfer was buffered.
			return
		}
		_, _ = io.WriteString(w, "second-half")
	}}
	importer := &streamProbeBackend{name: "dst", serveAPI: func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPut || !strings.HasSuffix(r.URL.Path, "/snapshot") {
			http.Error(w, "unexpected", http.StatusTeapot)
			return
		}
		first := make([]byte, len("first-half|"))
		if _, err := io.ReadFull(r.Body, first); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		received = append(received, first...)
		close(firstChunkConsumed)
		rest, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		received = append(received, rest...)
		w.WriteHeader(http.StatusCreated)
		_ = json.NewEncoder(w).Encode(client.DatasetInfo{Dataset: "ds"})
	}}
	rt, err := NewRouter([]Backend{exporter, importer}, 0)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- rt.streamSnapshot("ds", 0, 1, "") }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("streamSnapshot: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("snapshot transfer deadlocked: the export was buffered instead of streamed to the importer")
	}
	if got := string(received); got != "first-half|second-half" {
		t.Fatalf("importer received %q", got)
	}
}

// gatedBackend delays PUT snapshot requests until the gate opens, freezing a
// replicate job mid-transfer — the crash window TestJobJournalResume
// simulates a restart inside.
type gatedBackend struct {
	Backend
	gate chan struct{}
}

func (b *gatedBackend) ServeAPI(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPut && strings.HasSuffix(r.URL.Path, "/snapshot") {
		<-b.gate
	}
	b.Backend.ServeAPI(w, r)
}

// TestJobJournalResume: a router that restarts mid-job neither forgets nor
// silently repeats it. A replicate job frozen mid-transfer is re-run to
// completion under its original id by the next router; a journaled move
// whose copy never finished is re-registered as explicitly failed, with the
// dataset still serving from the source.
func TestJobJournalResume(t *testing.T) {
	net_, _, _, _ := testNetwork(t)
	net_.Oracle = road.BuildGTree(net_.Road, 0)
	cfg := service.Config{
		MaxInFlight:    4,
		MaxQueue:       64,
		DefaultTimeout: 120 * time.Second,
		LoadSpec: func(string, *service.DatasetSpec) (*mac.Network, uint64, error) {
			return net_, 0, nil
		},
	}
	locals := []*Local{
		NewLocal("shard-0", service.New(cfg)),
		NewLocal("shard-1", service.New(cfg)),
	}
	dir := t.TempDir()
	assignPath := filepath.Join(dir, "assignments.json")
	journalPath := assignPath + ".jobs"

	// First life: replication 2, but the follower's snapshot restore is
	// gated shut — the replicate job journals "started" and freezes.
	gate := make(chan struct{})
	defer close(gate) // unblock the abandoned job's worker at test end
	gated := []Backend{
		&gatedBackend{Backend: locals[0], gate: gate},
		&gatedBackend{Backend: locals[1], gate: gate},
	}
	rt1, err := NewRouter(gated, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt1.SetReplication(2)
	if _, err := rt1.PersistAssignments(assignPath); err != nil {
		t.Fatal(err)
	}
	if _, err := rt1.EnableJobJournal(journalPath); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(rt1.Handler())
	ctx := context.Background()
	if _, err := client.New(ts1.URL).CreateDataset(ctx, "resumable", &client.DatasetSpec{}); err != nil {
		t.Fatal(err)
	}
	// The replicate job is journaled before it is enqueued, so its start
	// record is on disk the moment the create answers.
	recs, err := durable.Read(journalPath, jobJournalMagic)
	if err != nil || len(recs) == 0 {
		t.Fatalf("journal holds %d records (err %v)", len(recs), err)
	}
	var started journalEntry
	if err := json.Unmarshal(recs[0], &started); err != nil {
		t.Fatalf("journal record: %v (%q)", err, recs[0])
	}
	if started.Kind != client.JobKindReplicate || started.Dataset != "resumable" || started.State != journalStarted {
		t.Fatalf("journaled entry = %+v", started)
	}
	ts1.Close() // "crash" the first router mid-replicate

	// Second life: same backends (ungated — the peer is fine, the router
	// died), same files. Recovery must re-run the replicate under the same
	// id and actually populate the follower.
	rt2, err := NewRouter([]Backend{locals[0], locals[1]}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt2.SetReplication(2)
	if _, err := rt2.PersistAssignments(assignPath); err != nil {
		t.Fatal(err)
	}
	recovered, err := rt2.EnableJobJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if recovered != 1 {
		t.Fatalf("recovered %d job(s), want 1", recovered)
	}
	ts2 := httptest.NewServer(rt2.Handler())
	defer ts2.Close()
	sdk2 := client.New(ts2.URL)
	job, err := sdk2.WaitJob(ctx, started.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("recovered job %s: %v (%+v)", started.ID, err, job)
	}
	set := rt2.replicaSetFor("resumable")
	if len(set) != 2 {
		t.Fatalf("replica set after recovery = %v", set)
	}
	for _, idx := range set {
		if !holdsDataset(locals[idx], "resumable") {
			t.Fatalf("shard %s missing the dataset after journal recovery", locals[idx].Name())
		}
	}
	// The journal has settled: a third open recovers nothing.
	rt3, err := NewRouter([]Backend{locals[0], locals[1]}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := rt3.EnableJobJournal(journalPath); err != nil || n != 0 {
		t.Fatalf("journal not settled after completion: recovered=%d err=%v", n, err)
	}

	// A journaled move whose copy never reached the target fails explicitly
	// on recovery — the job id answers with the truth instead of 404.
	src := rt2.OwnerIndex("resumable")
	tgt := 1 - src
	if err := locals[tgt].Server().RemoveDataset("resumable"); err != nil {
		t.Fatal(err)
	}
	moveLine, _ := json.Marshal(journalEntry{
		ID: "job-77", Kind: client.JobKindMove, Dataset: "ghost-move",
		Source: locals[src].Name(), Target: locals[tgt].Name(),
		Replicas: []string{locals[tgt].Name()}, State: journalStarted, At: time.Now().UTC(),
	})
	if err := os.WriteFile(journalPath, durable.AppendFrame([]byte(jobJournalMagic), moveLine), 0o644); err != nil {
		t.Fatal(err)
	}
	rt4, err := NewRouter([]Backend{locals[0], locals[1]}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := rt4.EnableJobJournal(journalPath); err != nil || n != 1 {
		t.Fatalf("move recovery: recovered=%d err=%v", n, err)
	}
	ts4 := httptest.NewServer(rt4.Handler())
	defer ts4.Close()
	failed, err := client.New(ts4.URL).WaitJob(ctx, "job-77", 5*time.Millisecond)
	if err == nil || failed == nil || failed.State != client.JobFailed {
		t.Fatalf("recovered doomed move: job=%+v err=%v, want explicit failure", failed, err)
	}
	if !strings.Contains(failed.Error, "re-issue the move") {
		t.Fatalf("failure message %q does not tell the operator what to do", failed.Error)
	}
}

// TestProberMoveRaceNoStalePin: a fast background prober (SyncAssignments +
// SyncReplicas on a tight loop) racing concurrent moves must never resurrect
// a stale assignment — the generation guard discards reconciles whose
// dataset lists predate a cutover. Run with -race; before the guard, a
// prober that fetched lists during the copy window could re-pin the drained
// source after the move completed.
func TestProberMoveRaceNoStalePin(t *testing.T) {
	net_, _, _, _ := testNetwork(t)
	rt, locals := moveRouter(t, net_)
	stop := rt.StartProber(time.Millisecond)
	defer stop()
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	ctx := context.Background()
	sdk := client.New(ts.URL)

	if _, err := sdk.CreateDataset(ctx, "pingpong", &client.DatasetSpec{}); err != nil {
		t.Fatal(err)
	}
	cur := rt.OwnerIndex("pingpong")
	for round := 0; round < 4; round++ {
		tgt := 1 - cur
		job, err := sdk.MoveDataset(ctx, "pingpong", locals[tgt].Name())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if _, err := sdk.WaitJob(ctx, job.ID, time.Millisecond); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// The prober keeps reconciling at 1ms; give it cycles to do damage,
		// then assert the cutover stuck and exactly one copy remains.
		time.Sleep(20 * time.Millisecond)
		if got := rt.OwnerIndex("pingpong"); got != tgt {
			t.Fatalf("round %d: owner = %d after move to %d — stale pin resurrected", round, got, tgt)
		}
		if holdsDataset(locals[cur], "pingpong") {
			t.Fatalf("round %d: source still holds the dataset", round)
		}
		if !holdsDataset(locals[tgt], "pingpong") {
			t.Fatalf("round %d: target lost the dataset", round)
		}
		cur = tgt
	}
}

// TestHealthzProbeBookkeeping: /v1/healthz reports when each backend was
// last probed and how many consecutive probes failed.
func TestHealthzProbeBookkeeping(t *testing.T) {
	cfg := service.Config{DefaultTimeout: time.Minute}
	locals := []*Local{
		NewLocal("shard-0", service.New(cfg)),
		NewLocal("shard-1", service.New(cfg)),
	}
	flaky := &toggleBackend{Backend: locals[1]}
	flaky.down.Store(true)
	rt, err := NewRouter([]Backend{locals[0], flaky}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	// Decode into a fresh struct each time: omitted (zero) fields must not
	// inherit stale values from a previous decode.
	getHealth := func() []ShardHealth {
		t.Helper()
		var health struct {
			Shards []ShardHealth `json:"shards"`
		}
		resp, err := http.Get(ts.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&health)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return health.Shards
	}
	var shards []ShardHealth
	for i := 0; i < 3; i++ {
		shards = getHealth()
	}
	for _, sh := range shards {
		if sh.LastProbe == "" {
			t.Fatalf("shard %s has no last-probe timestamp", sh.Name)
		}
		if _, err := time.Parse(time.RFC3339Nano, sh.LastProbe); err != nil {
			t.Fatalf("shard %s last_probe %q: %v", sh.Name, sh.LastProbe, err)
		}
		switch sh.Name {
		case "shard-0":
			if sh.ConsecutiveFailures != 0 {
				t.Fatalf("healthy shard reports %d consecutive failures", sh.ConsecutiveFailures)
			}
		case "shard-1":
			if sh.ConsecutiveFailures != 3 {
				t.Fatalf("down shard reports %d consecutive failures, want 3", sh.ConsecutiveFailures)
			}
		}
	}

	// Recovery resets the streak.
	flaky.down.Store(false)
	for _, sh := range getHealth() {
		if sh.ConsecutiveFailures != 0 {
			t.Fatalf("shard %s still reports %d consecutive failures after recovery", sh.Name, sh.ConsecutiveFailures)
		}
	}
}

// nilListBackend wraps a Backend so an empty dataset list comes back nil.
// That is the wire shape of a sharded macserver leaf probed through the SDK
// (its healthz nests per-shard entries whose empty dataset lists are
// omitted), unlike service.Server, whose Datasets() is never nil. The
// distinction matters: a follower that died and restarted empty is reachable
// with zero datasets, and SyncReplicas must read that as a gap to fill, not
// as "unreachable".
type nilListBackend struct{ Backend }

func (b nilListBackend) Datasets() ([]string, error) {
	ds, err := b.Backend.Datasets()
	if len(ds) == 0 {
		return nil, err
	}
	return ds, err
}

// TestSyncReplicasGapFillsEmptyFollower: a follower that comes back empty —
// and whose probe reports that emptiness as a nil list — is re-synced by the
// next SyncReplicas pass.
func TestSyncReplicasGapFillsEmptyFollower(t *testing.T) {
	net, _, _, _ := testNetwork(t)
	_, locals := moveRouter(t, net)
	rt, err := NewRouter([]Backend{nilListBackend{locals[0]}, nilListBackend{locals[1]}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetReplication(2)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	sdk := client.New(ts.URL, client.WithRetries(0))
	if _, err := sdk.CreateDataset(context.Background(), "gap", &client.DatasetSpec{}); err != nil {
		t.Fatal(err)
	}
	set := rt.replicaSetFor("gap")
	if len(set) != 2 {
		t.Fatalf("replica set %v, want 2 members", set)
	}
	waitFor(t, 30*time.Second, "initial follower sync", func() bool {
		return holdsDataset(locals[set[1]], "gap")
	})
	waitFor(t, 30*time.Second, "initial replicate job drain", func() bool {
		return !rt.isSyncing("gap")
	})

	// The follower "restarts empty": drop its copy behind the router's back.
	if err := locals[set[1]].Server().RemoveDataset("gap"); err != nil {
		t.Fatal(err)
	}
	if ds, _ := rt.backends[set[1]].Datasets(); ds != nil {
		t.Fatalf("empty follower probe returned %v, want nil (the regression shape)", ds)
	}
	if repairs := rt.SyncReplicas(); repairs == 0 {
		t.Fatal("SyncReplicas saw an empty reachable follower and initiated no repair")
	}
	waitFor(t, 30*time.Second, "gap re-fill", func() bool {
		return holdsDataset(locals[set[1]], "gap")
	})
}
