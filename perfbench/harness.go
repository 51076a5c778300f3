package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"roadsocial/client"
	"roadsocial/internal/service"
)

// dsName is the dataset name the benchmark registers.
const dsName = "bench"

// setupReps is how many times an untraced phase repeats its set-up;
// setup_s is the median.
const setupReps = 15

// opTimeout is each op's deadline, far above any service time observed on
// these workloads, so a failure means the program failed, not the clock.
const opTimeout = 60 * time.Second

// shape is how a workload drives the server.
type shape struct {
	sessions  int  // closed-loop clients, one connection each
	subscribe bool // one extra connection holds an SSE subscription
	journal   bool // mutations are journaled (fsync on)
	prefix    int  // ops whose exact counts must repeat per seed
}

var workloads = map[string]shape{
	"explore": {sessions: 2, prefix: 48},
	"live":    {sessions: 1, subscribe: true, journal: true, prefix: 300},
}

// session is one client connection: the SDK over its own transport, which
// remembers the Server-Timing header of the last response. A session runs
// one request at a time, so the field needs no lock.
type session struct {
	sdk *client.Client
	hc  *http.Client
	tr  *timingTransport
}

type timingTransport struct {
	base http.RoundTripper
	last string
}

func (t *timingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.last = ""
	resp, err := t.base.RoundTrip(r)
	if err == nil {
		t.last = resp.Header.Get(client.HeaderServerTiming)
	}
	return resp, err
}

func newSession(url string) *session {
	tr := &timingTransport{base: http.DefaultTransport.(*http.Transport).Clone()}
	hc := &http.Client{Transport: tr}
	return &session{sdk: client.New(url, client.WithHTTPClient(hc), client.WithRetries(0)), hc: hc, tr: tr}
}

// rig is one server with its registered dataset, warmed and ready.
type rig struct {
	srv      *service.Server
	ts       *httptest.Server
	sess     []*session // sess[0] also makes the control-plane calls
	subSess  *session
	standing []*client.StandingQuery
	sub      *client.Subscription
	// warmWrite is live's untimed first write, acked at version warmVersion.
	warmWrite   *client.MutateRequest
	warmVersion uint64
	registerS   float64
	warmS       float64
}

func (g *rig) close() {
	if g.sub != nil {
		g.sub.Close()
	}
	if g.ts != nil {
		_ = g.sess[0].sdk.DeleteDataset(context.Background(), dsName)
		for _, s := range append(g.sess, g.subSess) {
			if s != nil {
				s.hc.CloseIdleConnections()
			}
		}
		g.ts.Close()
	}
}

// startRig creates a server and runs the workload's set-up: snapshot
// registration, standing-query registration and warm-up.
func startRig(cfg config, in *inputs, dir string) (*rig, error) {
	sh := workloads[cfg.workload]
	scfg := service.Config{
		// Server records go to standard error, above info level, so the
		// access log neither mixes with the metrics nor costs formatting.
		Logger: slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
	}
	if sh.journal {
		// A fresh directory per server: journals and standing sidecars of
		// an earlier set-up must not replay into this one.
		jdir, err := os.MkdirTemp(dir, "journal-")
		if err != nil {
			return nil, err
		}
		scfg.MutationLogDir = jdir
	}
	srv := service.New(scfg)
	h := srv.Handler()
	if cfg.wrap != nil {
		h = cfg.wrap(h)
	}
	g := &rig{srv: srv, ts: httptest.NewServer(h)}
	for i := 0; i < sh.sessions; i++ {
		g.sess = append(g.sess, newSession(g.ts.URL))
	}
	if sh.subscribe {
		g.subSess = newSession(g.ts.URL)
	}
	ctx := context.Background()
	admin := g.sess[0].sdk

	start := time.Now()
	if _, err := admin.CreateDataset(ctx, dsName, &client.DatasetSpec{Snapshot: in.snapPath}); err != nil {
		g.close()
		return nil, fmt.Errorf("register snapshot: %w", err)
	}
	g.registerS = time.Since(start).Seconds()
	warm := time.Now()
	if err := g.warm(cfg, in); err != nil {
		g.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	g.warmS = time.Since(warm).Seconds()
	return g, nil
}

// warm fills the prepared cache for the hot families, registers live's
// standing queries and pays live's lazy core+truss decomposition with a
// write that moves the victim onto its own spot.
func (g *rig) warm(cfg config, in *inputs) error {
	ctx := context.Background()
	admin := g.sess[0].sdk
	switch cfg.workload {
	case "explore":
		for _, f := range in.families {
			if _, err := admin.KTCore(ctx, dsName, &client.SearchRequest{Q: f.q, K: f.k, T: f.t}); err != nil {
				return err
			}
		}
	case "live":
		g.warmWrite = in.warmWrite
		mres, err := admin.Mutate(ctx, dsName, g.warmWrite)
		if err != nil {
			return err
		}
		g.warmVersion = mres.Version
		for _, f := range in.families {
			sq, err := admin.CreateStandingQuery(ctx, dsName, &client.StandingQueryRequest{Q: f.q, K: f.k, T: f.t})
			if err != nil {
				return err
			}
			g.standing = append(g.standing, sq)
		}
		if g.sub, err = g.subSess.sdk.Subscribe(ctx, dsName, g.standing[0].ID, 0); err != nil {
			return err
		}
	}
	return nil
}

// readRequest is the wire request of a read op. Searches run on one worker
// each: the sessions already fill the cores, and a search that spread over
// both would set the latency of whatever the other session ran beside it.
func readRequest(o *op) *client.SearchRequest {
	req := &client.SearchRequest{Q: o.q, K: o.k, T: o.t, J: o.j, Algo: o.algo, TimeoutMs: int(opTimeout / time.Millisecond)}
	if o.kind == opSearch {
		req.Parallelism = 1
	}
	return req
}

// rec is one completed op as the client saw it. Answers are kept as
// digests: the benchmark's own memory stays small next to the server's.
type rec struct {
	op       int
	start    time.Duration // since the phase start
	end      time.Duration
	status   int    // 0 on success, the HTTP status, or -1 for a transport error
	err      string // transport or API error text
	cacheHit bool
	version  uint64
	// reads: the member digest (ktcore) or the whole-answer digest (search)
	digest uint64
	size   int
	// searches: the first answer of each distinct request keeps its cells
	cells []cellDigest
	stats client.SearchStats
	// writes
	mut *client.MutateResponse
}

func (r *rec) ms() float64 { return float64(r.end-r.start) / float64(time.Millisecond) }

// cellDigest is one returned cell: its witness and its ranked communities.
type cellDigest struct {
	witness []float64
	ranked  []memberDigest
}

type memberDigest struct {
	size   int
	digest uint64
}

// event is one SSE delta as the subscriber received it.
type event struct {
	ev client.QueryEvent
	at time.Duration
}

// phase is one timed phase and its records, in op order.
type phase struct {
	round  int // the op list's round length
	rig    *rig
	setups []*setupTimes
	// slab holds a record for every op of the list, allocated before the
	// heap baseline so that heap_mb does not count the benchmark's own
	// records; recs points at the completed ones.
	slab      []rec
	recs      []*rec
	elapsed   time.Duration
	exhausted atomic.Bool
	metrics   map[string]float64 // /metrics deltas over the phase
	heapMiB   float64
	tracer    *tracer
	// first holds, per distinct search request, the op that kept its cells.
	first sync.Map

	// live: the subscriber's events, the last acked write version, and why
	// the subscriber did not catch up with it, if it did not.
	evMu    sync.Mutex
	events  []event
	subDone chan struct{}
	lastVer uint64
	settled error
}

type setupTimes struct{ register, warm float64 }

func (p *phase) attempted() int { return len(p.recs) }

// measure runs the set-up (repeated, for a steady setup_s) and one timed
// phase on the last set-up's server, then settles the subscriber and tears
// the server down. A traced phase records spans around every SDK call.
func measure(cfg config, in *inputs, dir string, traced bool) (*phase, error) {
	p := &phase{round: in.round, slab: make([]rec, len(in.ops))}
	reps := cfg.setupReps
	switch {
	case traced:
		reps = 1
	case reps == 0:
		reps = setupReps
	}
	var baseline float64
	for rep := 0; rep < reps; rep++ {
		// Every set-up starts from a collected heap, so none pays for the
		// garbage of the inputs or of the set-up before it.
		baseline = heapMiB()
		g, err := startRig(cfg, in, dir)
		if err != nil {
			return nil, err
		}
		p.setups = append(p.setups, &setupTimes{register: g.registerS, warm: g.warmS})
		if rep < reps-1 {
			g.close()
			continue
		}
		p.rig = g
	}
	defer p.rig.close()
	if traced {
		p.tracer = newTracer()
	}
	before, err := scrape(p.rig)
	if err != nil {
		return nil, err
	}
	p.timed(cfg, in)
	if p.rig.sub != nil {
		// Heap and counters are read once the write path is quiet: the
		// standing re-evaluations of the last writes have run.
		p.settled = p.settle()
	}
	p.heapMiB = heapMiB() - baseline
	after, err := scrape(p.rig)
	if err != nil {
		return nil, err
	}
	p.metrics = map[string]float64{}
	for k, v := range after {
		p.metrics[k] = v - before[k]
	}
	return p, nil
}

// timed runs the closed loop: each session takes the next op of the list
// and sends it once the previous one completed. When the phase's seconds
// are up, the sessions finish the round of the op list in progress (a
// workload without rounds stops at once); an op in flight still completes
// and counts. Whole rounds give every run the same mix of requests.
func (p *phase) timed(cfg config, in *inputs) {
	g := p.rig
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	claim := func() (int, bool) {
		for {
			i := next.Load()
			if int(i) >= len(in.ops) {
				p.exhausted.Store(true)
				return 0, false
			}
			if time.Now().After(deadline) && (in.round == 0 || int(i)%in.round == 0) {
				return 0, false
			}
			if next.CompareAndSwap(i, i+1) {
				return int(i), true
			}
		}
	}
	if g.sub != nil {
		p.subDone = make(chan struct{})
		go func() {
			defer close(p.subDone)
			for ev := range g.sub.Events() {
				p.evMu.Lock()
				p.events = append(p.events, event{ev: ev, at: time.Since(start)})
				p.evMu.Unlock()
			}
		}()
	}
	var wg sync.WaitGroup
	for si := range g.sess {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				p.send(&p.slab[i], g.sess[si], i, &in.ops[i], start)
			}
		}(si)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	// Ops are claimed in order and every claimed op completes.
	p.recs = make([]*rec, next.Load())
	for i := range p.recs {
		p.recs[i] = &p.slab[i]
	}
	p.lastVer = g.warmVersion
	for _, r := range p.recs {
		if r.mut != nil && r.mut.Version > p.lastVer {
			p.lastVer = r.mut.Version
		}
	}
}

// send sends op i through the session's SDK and records what came back in
// r. A traced phase records the SDK call as a span, with the Server-Timing
// phases the server reported as its children.
func (p *phase) send(r *rec, s *session, i int, o *op, start time.Time) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout+10*time.Second)
	defer cancel()
	r.op = i
	span := -1
	if p.tracer != nil {
		span = p.tracer.begin(sdkSpanName(o.kind), i, -1)
	}
	r.start = time.Since(start)
	var err error
	switch o.kind {
	case opWrite:
		r.mut, err = s.sdk.Mutate(ctx, dsName, o.write)
		if err == nil {
			r.version = r.mut.Version
		}
	case opKTCore:
		var resp *client.SearchResponse
		if resp, err = s.sdk.KTCore(ctx, dsName, readRequest(o)); err == nil {
			r.cacheHit = resp.Cache == client.CacheHit
			r.version = resp.Version
			r.size, r.digest = len(resp.KTCore), digestMembers(resp.KTCore)
		}
	case opSearch:
		req := readRequest(o)
		req.Region = &client.RegionSpec{Lo: o.box.Lo, Hi: o.box.Hi}
		var resp *client.SearchResponse
		if resp, err = s.sdk.Search(ctx, dsName, req); err == nil {
			r.cacheHit = resp.Cache == client.CacheHit
			r.version = resp.Version
			cells := digestCells(resp.Cells)
			r.size, r.digest = len(resp.Cells), digestAnswer(cells)
			if _, seen := p.first.LoadOrStore(o.key(), i); !seen {
				r.cells = cells
			}
			if resp.Stats != nil {
				r.stats = *resp.Stats
			}
		}
	}
	r.end = time.Since(start)
	if err != nil {
		r.status, r.err = statusOf(err), err.Error()
	}
	if p.tracer != nil {
		p.tracer.end(span)
		if tm, ok := parseServerTiming(s.tr.last); ok && err == nil {
			p.tracer.serverPhases(span, i, tm)
		}
	}
}

// settle waits until live's standing re-evaluations have all run (no
// standing_eval job is pending or running) and the deltas the subscriber
// received fold to the subscribed query's membership, then ends the
// subscription.
func (p *phase) settle() error {
	g := p.rig
	defer func() {
		g.sub.Close()
		<-p.subDone
		g.sub = nil
	}()
	ctx := context.Background()
	admin := g.sess[0].sdk
	deadline := time.Now().Add(30 * time.Second)
	for {
		jobs, err := admin.Jobs(ctx)
		if err != nil {
			return fmt.Errorf("list jobs: %w", err)
		}
		busy := false
		for _, j := range jobs {
			busy = busy || (j.Kind == client.JobKindStandingEval && !j.Done())
		}
		if !busy {
			sq, err := admin.StandingQuery(ctx, dsName, g.standing[0].ID)
			if err != nil {
				return fmt.Errorf("read standing query: %w", err)
			}
			p.evMu.Lock()
			folded := fold(g.standing[0].Members, p.events)
			p.evMu.Unlock()
			if equalMembers(folded, sq.Members) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("after 30s, standing evaluations busy=%v or folded deltas differ from the query's members", busy)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fold applies the deltas to the initial membership.
func fold(initial []int32, events []event) []int32 {
	set := map[int32]bool{}
	for _, v := range initial {
		set[v] = true
	}
	for _, e := range events {
		for _, v := range e.ev.Left {
			delete(set, v)
		}
		for _, v := range e.ev.Joined {
			set[v] = true
		}
	}
	out := make([]int32, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalMembers(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// statusOf maps an SDK error onto the HTTP status, or -1 for transport
// errors.
func statusOf(err error) int {
	if st := client.StatusOf(err); st != 0 {
		return st
	}
	return -1
}

// parseServerTiming reads the queue, prepare, search and encode phases of a
// Server-Timing header, in milliseconds.
func parseServerTiming(h string) ([4]float64, bool) {
	var tm [4]float64
	names := [4]string{"queue", "prepare", "search", "encode"}
	found := 0
	for _, part := range strings.Split(h, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(dur, 64)
		if err != nil {
			continue
		}
		for i, n := range names {
			if n == name {
				tm[i] = v
				found++
			}
		}
	}
	return tm, found == len(names)
}

// promCounters are the /metrics series whose deltas the benchmark reports.
var promCounters = []string{
	"macserver_cache_hits_total",
	"macserver_cache_misses_total",
	"macserver_standing_evals_total",
	"macserver_standing_notified_total",
	"macserver_standing_lagged_total",
	"macserver_standing_events_total",
}

// scrape reads the counters from the server's /metrics exposition: the
// unlabeled samples of the named series.
func scrape(g *rig) (map[string]float64, error) {
	resp, err := g.sess[0].hc.Get(g.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	want := map[string]bool{}
	for _, name := range promCounters {
		want[name] = true
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || !want[name] {
			continue
		}
		if out[name], err = strconv.ParseFloat(strings.TrimSpace(val), 64); err != nil {
			return nil, fmt.Errorf("/metrics %s: %w", name, err)
		}
	}
	for _, name := range promCounters {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("/metrics has no %s", name)
		}
	}
	return out, nil
}

// heapMiB is the live heap after two GC cycles, in MiB.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
