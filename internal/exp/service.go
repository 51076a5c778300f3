package exp

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"roadsocial/client"
	"roadsocial/internal/mac"
	"roadsocial/internal/mutate"
	"roadsocial/internal/promtest"
	"roadsocial/internal/road"
	"roadsocial/internal/service"
)

// Service-latency workload shape. Every phase records its concurrency in
// the bench record as <phase>_workers and <phase>_requests.
const (
	// The cold/warm phase: serviceColdKeys distinct core keys (the first
	// serviceTrussKeys of them again for truss), each sent once cold, then
	// serviceWarmPasses sequential warm passes over the same keys.
	serviceColdKeys   = 6
	serviceTrussKeys  = 4
	serviceWarmPasses = 3
	// The load phase: serviceLoadWorkers closed-loop clients on one cached
	// key, serviceLoadPerWork requests each.
	serviceLoadWorkers  = 4
	serviceLoadPerWork  = 25
	serviceSaturateReqs = 16
	serviceSigma        = 0.004
	serviceOpenLoopReqs = 80
	serviceBatchItems   = 8
	serviceBatchRounds  = 12
	// Mixed read-write phase: serviceMixedReqs requests, every
	// serviceMixedWriteEvery-th one a mutation (a 90/10 read/write split).
	serviceMixedReqs       = 100
	serviceMixedWriteEvery = 10
	// Standing-query phase: serviceStandingSubs live SSE subscribers over a
	// 90/10 mixed workload (serviceStandingReads warm reads per
	// membership-changing write), then serviceStandingBurstWriters concurrent
	// writers each firing serviceStandingBurstPerW relevant writes for the
	// coalescing measurement. The writers must be concurrent: a closed-loop
	// single writer interleaves 1:1 with the CPU-bound re-evaluations (on a
	// single-core runner they time-slice the same CPU), so no backlog ever
	// forms; parallel writers land several installs per eval pass.
	serviceStandingSubs         = 8
	serviceStandingRounds       = 10
	serviceStandingReads        = 9
	serviceStandingBurstWriters = 8
	serviceStandingBurstPerW    = 5
	// Rounds per side of the incremental-vs-full maintenance comparison.
	mutMaintRounds = 5
)

// ServiceLatency is the load-generator experiment for the query service
// (cmd/macserver), driven end to end through the typed client SDK. It
// starts the service in-process over one dataset and runs servicePhases in
// order; each phase appends its rows and metrics to the table (and from
// there to the -json bench record), which ServiceGates then checks.
func ServiceLatency(opts Options) (*Table, error) {
	opts.defaults()
	specs := opts.datasets()
	if len(specs) == 0 {
		return nil, fmt.Errorf("exp: no datasets selected")
	}
	spec := specs[0]
	in, err := spec.Build(opts.Scale, DefaultD, opts.Seed)
	if err != nil {
		return nil, err
	}
	in.Net.Oracle = road.BuildGTree(in.Net.Road, 0)
	// Distinct query sets give distinct cache keys; the first doubles as
	// the key of the load, batch, mixed and standing phases.
	queries := in.Queries(DefaultK, in.TDefault, DefaultQSize, serviceColdKeys)
	if len(queries) == 0 {
		return nil, fmt.Errorf("exp: no feasible queries for %s", spec.Name)
	}
	r := &serviceRun{opts: opts, spec: spec, in: in, queries: queries, edge: [2]int32{-1, -1}}
	for v := 0; v < in.Net.Social.N(); v++ {
		if in.Net.Social.Degree(v) > 0 {
			r.edge = [2]int32{int32(v), in.Net.Social.Neighbors(v)[0]}
			break
		}
	}
	if r.edge[0] < 0 {
		return nil, fmt.Errorf("exp: %s has no social edge to toggle", spec.Name)
	}
	region := in.Region(serviceSigma)
	r.region = &client.RegionSpec{Lo: region.Lo, Hi: region.Hi}
	r.tab = &Table{
		Title:   fmt.Sprintf("Service latency (%s): cold vs warm prepared cache, load, batch amortization, writes, saturation", spec.Name),
		Header:  []string{"phase", "workers", "requests", "ok", "rejected_429", "failed", "p50_ms", "p99_ms", "service_p50_ms"},
		Metrics: map[string]float64{},
	}

	srv := service.New(service.Config{Parallelism: opts.Parallelism, MaxQueue: 1024})
	if err := srv.AddDataset(spec.Name, in.Net); err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	r.url, r.sdk = ts.URL, client.New(ts.URL)

	for _, phase := range servicePhases {
		if err := phase(r); err != nil {
			return nil, err
		}
	}
	return r.tab, nil
}

// servicePhases run in order: the open-loop phase offers half the rate the
// load phase measured, and the write phases come after every read-only one.
var servicePhases = []func(*serviceRun) error{
	coldWarmPhase("", client.AlgoGlobal, DefaultK, serviceColdKeys),
	// k is lowered to 3 for truss: a k-truss is strictly denser than a
	// k-core, and the truss engine's per-deletion recomputation wants
	// moderate community sizes.
	coldWarmPhase("truss_", client.AlgoTruss, 3, serviceTrussKeys),
	loadPhase,
	openLoopPhase,
	batchPhase,
	mixedPhase,
	standingPhase,
	maintenancePhase,
	registerPhase,
	saturatePhase,
}

// serviceRun is what the service_latency phases share: one in-process
// server over one dataset, the SDK client driving it, the run's cache keys,
// a social edge the write phases toggle, and the table they fill.
type serviceRun struct {
	opts    Options
	spec    DatasetSpec
	in      *Instance
	queries [][]int32
	edge    [2]int32
	region  *client.RegionSpec
	url     string
	sdk     *client.Client
	tab     *Table
}

func (r *serviceRun) request(q []int32, k int, algo client.Algo) *client.SearchRequest {
	return &client.SearchRequest{Q: q, K: k, T: r.in.TDefault, Region: r.region, Algo: algo}
}

// search sends one search through the SDK and reports its HTTP status (200,
// or the APIError's; 0 when the request got no status at all), its
// latency, and the response of a 200.
func (r *serviceRun) search(req *client.SearchRequest) (int, float64, *client.SearchResponse) {
	start := time.Now()
	resp, err := r.sdk.Search(context.Background(), r.spec.Name, req)
	ms := msSince(start)
	if err != nil {
		return client.StatusOf(err), ms, nil
	}
	return http.StatusOK, ms, resp
}

// tally is one phase's row: its concurrency (workers clients sending
// requests in all, the shape of a load generator's run configuration), its
// requests by outcome, and its samples — request latencies, or what else
// the phase times, with server-side service times where it keeps them.
// Library-level phases count calls as requests.
type tally struct {
	name    string
	workers int

	mu                           sync.Mutex
	requests, ok, rejected, fail int
	lat, svc                     []float64
}

// count tallies one request by its HTTP status and reports whether it was
// answered (200). 429 is a rejection; any other status is a failure.
func (t *tally) count(status int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.requests++
	switch status {
	case http.StatusOK:
		t.ok++
		return true
	case http.StatusTooManyRequests:
		t.rejected++
	default:
		t.fail++
	}
	return false
}

// add counts one request and keeps the latency of an answered one.
func (t *tally) add(status int, ms float64) {
	if t.count(status) {
		t.mu.Lock()
		t.lat = append(t.lat, ms)
		t.mu.Unlock()
	}
}

// record appends the phase's row and its metrics <name>_workers,
// _requests, _failed, _p50_ms and _p99_ms, plus _service_p50_ms when the
// phase kept service times.
func (t *tally) record(tab *Table) {
	p50, p99 := percentileMs(t.lat, 0.50), percentileMs(t.lat, 0.99)
	row := []string{t.name, fmt.Sprint(t.workers), fmt.Sprint(t.requests), fmt.Sprint(t.ok),
		fmt.Sprint(t.rejected), fmt.Sprint(t.fail), fmt.Sprintf("%.3f", p50), fmt.Sprintf("%.3f", p99), "-"}
	m := tab.Metrics
	if t.svc != nil {
		m[t.name+"_service_p50_ms"] = percentileMs(t.svc, 0.50)
		row[8] = fmt.Sprintf("%.3f", m[t.name+"_service_p50_ms"])
	}
	tab.Rows = append(tab.Rows, row)
	m[t.name+"_workers"] = float64(t.workers)
	m[t.name+"_requests"] = float64(t.requests)
	m[t.name+"_failed"] = float64(t.fail)
	m[t.name+"_p50_ms"], m[t.name+"_p99_ms"] = p50, p99
}

// coldWarmPhase measures what the prepared cache saves one engine. A
// sequential cold pass sends each key once; every answer must be a cache
// miss, which paid the full prepare (the Lemma 1 range query on the G-tree,
// then the core or truss peel). serviceWarmPasses sequential passes then
// resend the same keys; every answer must be a hit. Each answer's
// server-side service time (SearchResponse.ElapsedMs: prepare plus search,
// with no queue and no encode) is kept next to its latency. Cold and warm
// compare only over keys answered on both sides, so a key that fails (say,
// past the request deadline) drops out of both. <prefix>cold_minus_warm_ms
// pairs the two sides by key: the median over compared keys of a key's
// cold service time minus the median of its warm ones, so keys whose
// searches cost several times more than others do not decide the sign.
func coldWarmPhase(prefix string, algo client.Algo, k, keys int) func(*serviceRun) error {
	return func(r *serviceRun) error {
		qs := r.queries[:min(keys, len(r.queries))]
		cold := &tally{name: prefix + "cold", workers: 1}
		warm := &tally{name: prefix + "warm", workers: 1}
		// answers[i] holds key i's answered (latency, service time) pairs.
		type answers [][][2]float64
		pass := func(t *tally, by answers, want string) error {
			for i, q := range qs {
				status, ms, resp := r.search(r.request(q, k, algo))
				if !t.count(status) {
					continue
				}
				if resp.Cache != want {
					return fmt.Errorf("exp: %s key %d answered as a cache %s, want %s", t.name, i, resp.Cache, want)
				}
				by[i] = append(by[i], [2]float64{ms, resp.ElapsedMs})
			}
			return nil
		}
		coldBy, warmBy := make(answers, len(qs)), make(answers, len(qs))
		if err := pass(cold, coldBy, "miss"); err != nil {
			return err
		}
		for p := 0; p < serviceWarmPasses; p++ {
			if err := pass(warm, warmBy, "hit"); err != nil {
				return err
			}
		}
		keep := func(t *tally, by answers, i int) {
			for _, a := range by[i] {
				t.lat, t.svc = append(t.lat, a[0]), append(t.svc, a[1])
			}
		}
		var saved []float64 // per compared key: cold minus median warm service time
		for i := range qs {
			if len(coldBy[i]) > 0 && len(warmBy[i]) > 0 {
				keep(cold, coldBy, i)
				keep(warm, warmBy, i)
				warmSvc := make([]float64, len(warmBy[i]))
				for j, a := range warmBy[i] {
					warmSvc[j] = a[1]
				}
				saved = append(saved, coldBy[i][0][1]-percentileMs(warmSvc, 0.5))
			}
		}
		cold.record(r.tab)
		warm.record(r.tab)
		r.tab.Metrics[prefix+"keys_compared"] = float64(len(saved))
		r.tab.Metrics[prefix+"cold_minus_warm_ms"] = percentileMs(saved, 0.5)
		if w := r.tab.Metrics[warm.name+"_p50_ms"]; w > 0 {
			r.tab.Metrics[prefix+"cold_over_warm_p50"] = r.tab.Metrics[cold.name+"_p50_ms"] / w
		}
		return nil
	}
}

// loadPhase is closed-loop load on one cached key: serviceLoadWorkers
// concurrent clients, serviceLoadPerWork requests each. Its latency
// includes queueing behind the other clients; its throughput (load_qps)
// sizes the open-loop phase. The service's own cache-hit counter is scraped
// around it and must move by exactly the requests sent, which
// cross-checks the /metrics pipeline against ground truth.
func loadPhase(r *serviceRun) error {
	req := r.request(r.queries[0], DefaultK, client.AlgoGlobal)
	if status, _, _ := r.search(req); status != http.StatusOK {
		return fmt.Errorf("exp: load warm-up request answered %d", status)
	}
	hitsBefore, err := scrapeCounter(r.url, "macserver_cache_hits_total")
	if err != nil {
		return fmt.Errorf("exp: pre-load /metrics scrape: %v", err)
	}
	t := &tally{name: "load", workers: serviceLoadWorkers}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < serviceLoadWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < serviceLoadPerWork; i++ {
				status, ms, _ := r.search(req)
				t.add(status, ms)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	t.record(r.tab)
	r.tab.Metrics["load_qps"] = float64(t.ok) / wall
	hitsAfter, err := scrapeCounter(r.url, "macserver_cache_hits_total")
	if err != nil {
		return fmt.Errorf("exp: post-load /metrics scrape: %v", err)
	}
	hits := hitsAfter - hitsBefore
	r.tab.Metrics["load_cache_hits_delta"] = hits
	if int(hits) != t.requests {
		return fmt.Errorf("exp: /metrics cache_hits_total moved by %g over the load phase, want exactly %d", hits, t.requests)
	}
	return nil
}

// openLoopPhase offers Poisson arrivals at half the load phase's
// throughput, over persistent connections (the SDK's client keeps them
// alive). Unlike the closed loop — whose concurrency self-throttles to the
// service's pace — arrivals here do not wait for completions, so queueing
// delay under bursts shows up in the tail. Each arrival runs on its own
// goroutine, so the phase's workers equal its requests.
func openLoopPhase(r *serviceRun) error {
	offered := r.tab.Metrics["load_qps"] / 2
	if offered <= 0 {
		return nil
	}
	req := r.request(r.queries[0], DefaultK, client.AlgoGlobal)
	t := &tally{name: "openloop", workers: serviceOpenLoopReqs}
	rng := rand.New(rand.NewSource(r.opts.Seed))
	var wg sync.WaitGroup
	start := time.Now()
	// Exponential inter-arrival times make the arrival process Poisson;
	// the seeded rng keeps the trace reproducible. Arrivals are scheduled
	// against absolute target times, not relative sleeps — per-sleep
	// overshoot otherwise accumulates and silently throttles the offered
	// rate well below its nominal value at sub-millisecond gaps. Here a
	// late wake-up fires the overdue arrivals back to back, which is exactly
	// what an open-loop burst looks like.
	elapsed := 0.0
	for i := 0; i < serviceOpenLoopReqs; i++ {
		elapsed += rng.ExpFloat64() / offered
		if d := time.Until(start.Add(time.Duration(elapsed * float64(time.Second)))); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, ms, _ := r.search(req)
			t.add(status, ms)
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	t.record(r.tab)
	r.tab.Metrics["openloop_offered_qps"] = offered
	r.tab.Metrics["openloop_achieved_qps"] = float64(t.ok) / wall
	r.tab.Metrics["openloop_429"] = float64(t.rejected)
	return nil
}

// batchPhase compares N warm membership requests sent one by one with the
// same N sent as one /v1/batch, sequential and then "parallel": true.
// Membership (ktcore) on a cached key is nearly free server-side, so the
// comparison isolates what the batch endpoint amortizes — per-request
// admission and transport. A batch's sample is its wall-clock over its
// items; batch_amortization is the single/batch per-item p50 ratio. The
// parallel batch widens into the admission semaphore's free slots; on a
// single-core runner it degrades to the sequential path (that is the
// contract), so its speedup is recorded but not gated.
func batchPhase(r *serviceRun) error {
	ctx := context.Background()
	ktReq := &client.SearchRequest{Dataset: r.spec.Name, Q: r.queries[0], K: DefaultK, T: r.in.TDefault}
	if _, err := r.sdk.KTCore(ctx, r.spec.Name, ktReq); err != nil {
		return fmt.Errorf("exp: batch warm-up failed: %v", err)
	}
	items := make([]client.BatchItem, serviceBatchItems)
	for i := range items {
		items[i] = client.BatchItem{Op: client.OpKTCore, SearchRequest: *ktReq}
	}
	single := &tally{name: "batch_single", workers: 1}
	batched := &tally{name: "batch_item", workers: 1}
	parallel := &tally{name: "batch_parallel_item", workers: 1}
	sendBatch := func(t *tally, par bool) error {
		start := time.Now()
		bresp, err := r.sdk.Batch(ctx, &client.BatchRequest{Items: items, Parallel: par})
		if err != nil {
			return err
		}
		if bresp.OK != serviceBatchItems {
			return fmt.Errorf("exp: %s: %d/%d items ok", t.name, bresp.OK, serviceBatchItems)
		}
		t.add(http.StatusOK, msSince(start)/serviceBatchItems)
		return nil
	}
	for round := 0; round < serviceBatchRounds; round++ {
		for i := 0; i < serviceBatchItems; i++ {
			start := time.Now()
			if _, err := r.sdk.KTCore(ctx, r.spec.Name, ktReq); err != nil {
				return err
			}
			single.add(http.StatusOK, msSince(start))
		}
		if err := sendBatch(batched, false); err != nil {
			return err
		}
	}
	for round := 0; round < serviceBatchRounds; round++ {
		if err := sendBatch(parallel, true); err != nil {
			return err
		}
	}
	for _, t := range []*tally{single, batched, parallel} {
		t.record(r.tab)
	}
	m := r.tab.Metrics
	if m["batch_item_p50_ms"] > 0 {
		m["batch_amortization"] = m["batch_single_p50_ms"] / m["batch_item_p50_ms"]
	}
	if m["batch_parallel_item_p50_ms"] > 0 {
		m["batch_parallel_speedup"] = m["batch_item_p50_ms"] / m["batch_parallel_item_p50_ms"]
	}
	return nil
}

// mixedPhase interleaves warm searches with edge mutations through
// POST/DELETE /v1/datasets/{name}/edges (90/10). Every tenth request
// toggles one social edge (delete, then re-insert), so each write bumps the
// dataset version and invalidates whatever prepared state its subcore
// touches; the read latencies measure what a mostly-read workload pays for
// riding a live graph instead of a frozen one. The toggles pair up, so the
// phase leaves the graph as found.
func mixedPhase(r *serviceRun) error {
	ctx := context.Background()
	req := r.request(r.queries[0], DefaultK, client.AlgoGlobal)
	edge := [][2]int32{r.edge}
	t := &tally{name: "mixed", workers: 1}
	mutations := 0
	deleted := false
	toggle := func() error {
		var mresp *client.MutateResponse
		var err error
		if deleted {
			mresp, err = r.sdk.Mutate(ctx, r.spec.Name, &client.MutateRequest{Inserts: edge})
		} else {
			mresp, err = r.sdk.DeleteEdges(ctx, r.spec.Name, edge)
		}
		if err != nil {
			return fmt.Errorf("exp: mixed phase mutation: %v", err)
		}
		deleted = !deleted
		mutations += mresp.Applied
		return nil
	}
	for i := 0; i < serviceMixedReqs; i++ {
		if (i+1)%serviceMixedWriteEvery != 0 {
			status, ms, _ := r.search(req)
			t.add(status, ms)
			continue
		}
		if err := toggle(); err != nil {
			return err
		}
		t.count(http.StatusOK)
	}
	if deleted {
		// An odd toggle count ended with the edge removed; put it back.
		if err := toggle(); err != nil {
			return err
		}
	}
	t.record(r.tab)
	r.tab.Metrics["mixed_mutations"] = float64(mutations)
	return nil
}

// maintenancePhase compares, at library level, keeping core and truss
// numbers current through one edge toggle (delete plus re-insert via
// mutate.Apply — self-inverse, so the state is identical after every round)
// with recomputing both decompositions from scratch (mutate.InitState).
// Each side reports the min of its rounds, so the gap measured is
// algorithmic, not scheduler noise.
func maintenancePhase(r *serviceRun) error {
	net := r.in.Net
	st := mutate.InitState(net.Social, 0)
	toggle := []mutate.Op{
		{Kind: mutate.DeleteEdge, U: r.edge[0], V: r.edge[1]},
		{Kind: mutate.InsertEdge, U: r.edge[0], V: r.edge[1]},
	}
	incr := &tally{name: "mutate_incremental", workers: 1}
	full := &tally{name: "mutate_full", workers: 1}
	for round := 0; round < mutMaintRounds; round++ {
		start := time.Now()
		if _, _, err := mutate.Apply(net, st, toggle); err != nil {
			return fmt.Errorf("exp: incremental maintenance round %d: %v", round, err)
		}
		incr.add(http.StatusOK, msSince(start))
		start = time.Now()
		mutate.InitState(net.Social, 0)
		full.add(http.StatusOK, msSince(start))
	}
	incr.record(r.tab)
	full.record(r.tab)
	r.tab.Metrics["mutate_incremental_ms"] = minOf(incr.lat)
	r.tab.Metrics["mutate_full_ms"] = minOf(full.lat)
	return nil
}

// saturatePhase bursts against a 1-slot, 2-queue server, which must reject
// the excess with immediate 429s instead of queueing it all. A gated
// oracle holds the admitted searches mid-prepare until every request of
// the burst has arrived, so the outcome (1 in-flight + 2 queued admitted,
// the rest rejected) does not depend on machine speed.
func saturatePhase(r *serviceRun) error {
	gate := &gatedOracle{inner: r.in.Net.Oracle, gate: make(chan struct{})}
	gnet := *r.in.Net
	gnet.Oracle = gate
	tiny := service.New(service.Config{MaxInFlight: 1, MaxQueue: 2, Parallelism: r.opts.Parallelism})
	if err := tiny.AddDataset(r.spec.Name, &gnet); err != nil {
		return err
	}
	tts := httptest.NewServer(tiny.Handler())
	defer tts.Close()
	tinySDK := client.New(tts.URL, client.WithRetries(0))
	t := &tally{name: "saturate", workers: serviceSaturateReqs}
	var wg sync.WaitGroup
	for i := 0; i < serviceSaturateReqs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := r.request(r.queries[i%len(r.queries)], DefaultK, "")
			req.T = r.in.TDefault + float64(i)
			start := time.Now()
			_, err := tinySDK.Search(context.Background(), r.spec.Name, req)
			status := http.StatusOK
			if err != nil {
				status = client.StatusOf(err)
			}
			t.add(status, msSince(start))
		}(i)
	}
	// Release the gate once the whole burst is accounted for (admitted,
	// queued, or rejected); fail open after a bound so a stall cannot hang
	// the harness.
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		st := tiny.Stats()
		if st.RejectedSaturated+st.InFlight+st.Queued >= serviceSaturateReqs {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate.gate)
	wg.Wait()
	t.record(r.tab)
	r.tab.Metrics["saturated_429"] = float64(t.rejected)
	return nil
}

// standingPhase registers one standing query on the load key, attaches
// serviceStandingSubs SSE subscribers, and measures the push path two ways.
// Paced rounds (standing_notify): serviceStandingReads warm membership
// reads, then one membership-changing mutation (severing or restoring every
// intra-community edge of one non-anchor member — the member provably
// leaves, then provably returns); the samples are mutation-ack to
// event-arrival at each subscriber. Burst rounds (standing_burst):
// same-spot location moves of that member fired from concurrent writers
// with no waiting reader; every batch is relevant, so the scraped
// standing_notified_total delta counts them all, while the coalescing
// runner folds the backlog into fewer standing_evals_total — the delta
// ratio is the coalescing factor. Both sub-phases leave the graph as found
// (the toggles pair up; the moves go nowhere).
func standingPhase(r *serviceRun) error {
	ctx := context.Background()
	sdk, name, q := r.sdk, r.spec.Name, r.queries[0]
	sq, err := sdk.CreateStandingQuery(ctx, name, &client.StandingQueryRequest{Q: q, K: DefaultK, T: r.in.TDefault})
	if err != nil {
		return fmt.Errorf("exp: standing register: %v", err)
	}
	// The toggle victim: the non-anchor member with the fewest edges inside
	// the community (at least one), since each write cuts or restores all
	// of them and every edge costs incremental core/truss maintenance.
	// Deleting them all expels it from any k-core; inserting them back
	// restores the original graph, so it rejoins.
	inComm := map[int32]bool{}
	for _, m := range sq.Members {
		inComm[m] = true
	}
	victim := int32(-1)
	var cut [][2]int32
	for _, m := range sq.Members {
		if slices.Contains(q, m) {
			continue
		}
		var edges [][2]int32
		for _, w := range r.in.Net.Social.Neighbors(int(m)) {
			if inComm[w] {
				edges = append(edges, [2]int32{m, w})
			}
		}
		if len(edges) > 0 && (cut == nil || len(edges) < len(cut)) {
			victim, cut = m, edges
		}
	}
	if cut == nil {
		return fmt.Errorf("exp: standing phase found no member to cut")
	}

	subs := make([]*client.Subscription, serviceStandingSubs)
	for i := range subs {
		if subs[i], err = sdk.Subscribe(ctx, name, sq.ID, 0); err != nil {
			return fmt.Errorf("exp: standing subscribe %d: %v", i, err)
		}
		defer subs[i].Close()
	}

	// Paced rounds: the 90/10 shape with a waiting reader. Every write
	// changes membership, so each round ends with exactly one delta fanned
	// out to all subscribers.
	notify := &tally{name: "standing_notify", workers: 1}
	ktReq := &client.SearchRequest{Q: q, K: DefaultK, T: r.in.TDefault}
	for round := 0; round < serviceStandingRounds; round++ {
		for i := 0; i < serviceStandingReads; i++ {
			if _, err := sdk.KTCore(ctx, name, ktReq); err != nil {
				return fmt.Errorf("exp: standing read: %v", err)
			}
			notify.count(http.StatusOK)
		}
		toggle := &client.MutateRequest{Deletes: cut}
		if round%2 == 1 {
			toggle = &client.MutateRequest{Inserts: cut}
		}
		mres, err := sdk.Mutate(ctx, name, toggle)
		if err != nil {
			return fmt.Errorf("exp: standing mutation round %d: %v", round, err)
		}
		notify.count(http.StatusOK)
		sent := time.Now()
		for si, sub := range subs {
			select {
			case ev, ok := <-sub.Events():
				if !ok {
					return fmt.Errorf("exp: standing subscriber %d closed: %v", si, sub.Err())
				}
				if ev.Lagged || ev.Version != mres.Version {
					return fmt.Errorf("exp: standing round %d subscriber %d: event %+v, want delta at version %d",
						round, si, ev, mres.Version)
				}
				notify.lat = append(notify.lat, msSince(sent))
			case <-time.After(30 * time.Second):
				return fmt.Errorf("exp: standing round %d: subscriber %d event timed out", round, si)
			}
		}
	}
	notify.record(r.tab)
	r.tab.Metrics["standing_subscribers"] = serviceStandingSubs

	// Burst rounds: drain subscribers in the background and fire relevant
	// writes from concurrent writers. Two pitfalls shape this sub-phase.
	// Edge toggles will not do — applying one (incremental core/truss
	// maintenance) costs more than the re-evaluation it triggers, so writes
	// could never outrun the runner; a same-spot location move of the victim
	// is the cheapest relevant write (MoveUser marks the vertex structurally
	// touched, since a moved member can change road distances, but does no
	// core/truss maintenance) and leaves the graph exactly as found. And a
	// single closed-loop writer will not do either — it interleaves 1:1 with
	// the CPU-bound evaluations (on a single-core runner they time-slice the
	// same CPU), so concurrent writers are what lands several installs per
	// eval pass and builds the backlog the runner folds.
	notifiedBefore, err := scrapeCounter(r.url, "macserver_standing_notified_total")
	if err != nil {
		return fmt.Errorf("exp: pre-burst /metrics scrape: %v", err)
	}
	evalsBefore, err := scrapeCounter(r.url, "macserver_standing_evals_total")
	if err != nil {
		return fmt.Errorf("exp: pre-burst /metrics scrape: %v", err)
	}
	stopDrain := make(chan struct{})
	var drainWG sync.WaitGroup
	defer func() {
		close(stopDrain)
		drainWG.Wait()
	}()
	for _, sub := range subs {
		drainWG.Add(1)
		go func(sub *client.Subscription) {
			defer drainWG.Done()
			for {
				select {
				case _, ok := <-sub.Events():
					if !ok {
						return
					}
				case <-stopDrain:
					return
				}
			}
		}(sub)
	}
	loc := r.in.Net.Locs[victim]
	move := client.LocationMove{User: victim, Vertex: loc.U}
	if loc.U != loc.V {
		move = client.LocationMove{User: victim, Edge: []int32{loc.U, loc.V}, Off: loc.Off}
	}
	moveReq := &client.MutateRequest{Moves: []client.LocationMove{move}}
	burst := &tally{name: "standing_burst", workers: serviceStandingBurstWriters}
	var burstWG sync.WaitGroup
	var burstErr atomic.Value
	var lastVersion atomic.Uint64
	for w := 0; w < serviceStandingBurstWriters; w++ {
		burstWG.Add(1)
		go func() {
			defer burstWG.Done()
			for i := 0; i < serviceStandingBurstPerW; i++ {
				start := time.Now()
				mres, err := sdk.Mutate(ctx, name, moveReq)
				if err != nil {
					burstErr.Store(err)
					return
				}
				burst.add(http.StatusOK, msSince(start))
				for {
					v := lastVersion.Load()
					if mres.Version <= v || lastVersion.CompareAndSwap(v, mres.Version) {
						break
					}
				}
			}
		}()
	}
	burstWG.Wait()
	if err, ok := burstErr.Load().(error); ok {
		return fmt.Errorf("exp: standing burst mutation: %v", err)
	}
	// Convergence: the resource's version reaches the last write, then the
	// eval counter goes quiet (a final no-op pass may still be in flight).
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, err := sdk.StandingQuery(ctx, name, sq.ID)
		if err != nil {
			return err
		}
		if cur.Version >= lastVersion.Load() {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("exp: standing burst never converged (resource at %d, want %d)", cur.Version, lastVersion.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
	evalsAfter, err := scrapeCounter(r.url, "macserver_standing_evals_total")
	for err == nil && time.Now().Before(deadline) {
		time.Sleep(25 * time.Millisecond)
		var again float64
		if again, err = scrapeCounter(r.url, "macserver_standing_evals_total"); err == nil && again == evalsAfter {
			break
		} else if err == nil {
			evalsAfter = again
		}
	}
	if err != nil {
		return fmt.Errorf("exp: post-burst /metrics scrape: %v", err)
	}
	notifiedAfter, err := scrapeCounter(r.url, "macserver_standing_notified_total")
	if err != nil {
		return fmt.Errorf("exp: post-burst /metrics scrape: %v", err)
	}
	burst.record(r.tab)
	notified, evals := notifiedAfter-notifiedBefore, evalsAfter-evalsBefore
	r.tab.Metrics["standing_burst_notified"] = notified
	r.tab.Metrics["standing_burst_evals"] = evals
	if evals > 0 {
		r.tab.Metrics["standing_coalesce_ratio"] = notified / evals
	}
	for _, sub := range subs {
		sub.Close()
	}
	if err := sdk.DeleteStandingQuery(ctx, name, sq.ID); err != nil {
		return fmt.Errorf("exp: standing teardown: %v", err)
	}
	return nil
}

// registerPhase measures three ways of registering the same dataset,
// slowest to fastest, plus the heap it costs to hold:
//
//	register_build    POST /v1/datasets/{name} with a synthetic spec —
//	                  generation plus G-tree construction.
//	register_snapshot PUT /v1/datasets/{name}/snapshot — the buffered
//	                  restore path: the v2 image travels over HTTP and is
//	                  loaded from one aligned in-memory copy.
//	register_mmap     POST /v1/datasets/{name} with Snapshot pointing at
//	                  the file — ReadSnapshotFile memory-maps the image and
//	                  adopts the flat arrays in place; no decode, no copy.
//
// Each mode reports the min of its rounds as register_<mode>_ms, so the
// comparison measures the construction-vs-copy-vs-fault gap rather than
// scheduler noise.
//
// heap_bytes_per_dataset is the capacity axis: the post-GC heap delta of
// holding one mmap-registered dataset resident. The flat slabs live on the
// mapping, not the heap, so this is the marginal cost of one more dataset
// on a box — the number that turns the bench trajectory into datasets-per-
// gigabyte.
func registerPhase(r *serviceRun) error {
	loader := func(name string, dspec *service.DatasetSpec) (*mac.Network, uint64, error) {
		if dspec.Snapshot != "" {
			return service.LoadSpecFiles(name, dspec)
		}
		in, err := r.spec.Build(r.opts.Scale, DefaultD, r.opts.Seed)
		if err != nil {
			return nil, 0, err
		}
		in.Net.Oracle = road.BuildGTree(in.Net.Road, 0)
		return in.Net, 0, nil
	}
	srv := service.New(service.Config{LoadSpec: loader})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()
	sdk := client.New(ts.URL)

	dir, err := os.MkdirTemp("", "snapbench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	snapPath := filepath.Join(dir, "snapbench.snap")
	fromFile := func() error {
		_, err := sdk.CreateDataset(ctx, "snapbench", &client.DatasetSpec{Snapshot: snapPath})
		return err
	}
	// timed registers the dataset through create and records the time
	// under t.
	timed := func(t *tally, create func() error) error {
		start := time.Now()
		if err := create(); err != nil {
			return fmt.Errorf("exp: %s: %v", t.name, err)
		}
		t.add(http.StatusOK, msSince(start))
		return nil
	}
	drop := func() error { return sdk.DeleteDataset(ctx, "snapbench") }
	build := &tally{name: "register_build", workers: 1}
	snap := &tally{name: "register_snapshot", workers: 1}
	mmap := &tally{name: "register_mmap", workers: 1}
	// Build rounds are expensive (full generation + G-tree construction);
	// the two restore paths are sub-millisecond, so they get extra rounds
	// to tighten the min before the ordering invariant gates on it.
	const rounds = 3
	const ioRounds = 5
	for round := 0; round < rounds; round++ {
		if err := timed(build, func() error {
			_, err := sdk.CreateDataset(ctx, "snapbench", &client.DatasetSpec{Synthetic: r.spec.Name})
			return err
		}); err != nil {
			return err
		}
		if round == 0 {
			// The first build is the image the restore modes register.
			var img bytes.Buffer
			if err := srv.SaveSnapshot("snapbench", &img); err != nil {
				return err
			}
			if err := os.WriteFile(snapPath, img.Bytes(), 0o600); err != nil {
				return err
			}
		}
		if err := drop(); err != nil {
			return err
		}
	}
	for round := 0; round < ioRounds; round++ {
		f, err := os.Open(snapPath)
		if err != nil {
			return err
		}
		err = timed(snap, func() error {
			_, err := sdk.CreateDatasetFromSnapshot(ctx, "snapbench", f)
			return err
		})
		f.Close()
		if err != nil {
			return err
		}
		if err := drop(); err != nil {
			return err
		}
	}
	for round := 0; round < ioRounds; round++ {
		if err := timed(mmap, fromFile); err != nil {
			return err
		}
		if err := drop(); err != nil {
			return err
		}
	}
	// Heap cost of holding the dataset: dedicated untimed rounds, so the
	// forced GC cycles cannot bleed into the register timings above. Min
	// over rounds, measured while the dataset is resident (GC noise only
	// ever inflates the delta).
	heapBytes := 0.0
	for round := 0; round < rounds; round++ {
		before := heapInUse()
		if err := fromFile(); err != nil {
			return fmt.Errorf("exp: heap register: %v", err)
		}
		if delta := heapInUse() - before; delta > 0 && (heapBytes == 0 || delta < heapBytes) {
			heapBytes = delta
		}
		if err := drop(); err != nil {
			return err
		}
	}
	m := r.tab.Metrics
	for _, t := range []*tally{build, snap, mmap} {
		t.record(r.tab)
		m[t.name+"_ms"] = minOf(t.lat)
	}
	if m["register_snapshot_ms"] > 0 {
		m["snapshot_speedup"] = m["register_build_ms"] / m["register_snapshot_ms"]
	}
	if m["register_mmap_ms"] > 0 {
		m["mmap_speedup"] = m["register_snapshot_ms"] / m["register_mmap_ms"]
	}
	m["heap_bytes_per_dataset"] = heapBytes
	return nil
}

// heapInUse reads the post-GC live heap. Two GC cycles settle finalizer
// chains (a dropped dataset's mmap holder frees on the cycle after the
// graph does) so successive readings compare like with like.
func heapInUse() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// scrapeCounter fetches url's /metrics exposition through the strict parser
// and returns the named single-sample counter. Benchmarks use it to verify
// the counters against deltas the load generator can predict exactly.
func scrapeCounter(url, name string) (float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	fams, err := promtest.Parse(string(text))
	if err != nil {
		return 0, fmt.Errorf("/metrics does not parse: %v", err)
	}
	return promtest.Value(fams, name, nil)
}

// gatedOracle blocks every range query until its gate closes — the
// saturation phase uses it to hold admitted requests in flight while the
// rest of the burst arrives.
type gatedOracle struct {
	inner road.Oracle
	gate  chan struct{}
}

func (g *gatedOracle) QueryDistances(qs, us []road.Location, bound float64) ([]float64, error) {
	<-g.gate
	return g.inner.QueryDistances(qs, us, bound)
}

// percentileMs reads the q-th percentile of unsorted latencies by nearest
// rank: the ⌈q·n⌉-th smallest of n samples, so the p99 of 100 or fewer
// samples is their maximum.
func percentileMs(lat []float64, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]float64(nil), lat...)
	slices.Sort(s)
	return s[int(math.Ceil(q*float64(len(s))))-1]
}

// minOf is the smallest of a phase's samples, 0 for none.
func minOf(lat []float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	return slices.Min(lat)
}

// msSince is the time since start in (fractional) milliseconds.
func msSince(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}
