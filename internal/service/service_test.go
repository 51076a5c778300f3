package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roadsocial/internal/gen"
	"roadsocial/internal/mac"
	"roadsocial/internal/road"
)

// testNetwork builds a small synthetic road-social network with a feasible
// (Q, k, t) workload.
func testNetwork(t testing.TB) (*mac.Network, []int32, int, float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	net, err := gen.Network(gen.NetworkConfig{
		Social: gen.SocialConfig{
			N: 150, D: 3, AttachEdges: 3,
			Communities: 3, CommunitySize: 30, CommunityP: 0.6,
		},
		RoadRows: 10, RoadCols: 10,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	const k, tt = 4, 900.0
	qs := gen.Queries(net, k, tt, 3, 1, rng)
	if len(qs) == 0 {
		t.Fatal("no feasible query in test network")
	}
	return net, qs[0], k, tt
}

// gateOracle wraps an Oracle, blocking every QueryDistances call until the
// gate channel closes. started receives one token per call (buffered), so
// tests can sequence against in-flight requests.
type gateOracle struct {
	inner   road.Oracle
	gate    chan struct{}
	started chan struct{}
	calls   atomic.Int64
}

func (g *gateOracle) QueryDistances(qs, us []road.Location, bound float64) ([]float64, error) {
	g.calls.Add(1)
	select {
	case g.started <- struct{}{}:
	default:
	}
	<-g.gate
	return g.inner.QueryDistances(qs, us, bound)
}

func searchBody(t testing.TB, dataset string, q []int32, k int, tt float64, extra map[string]any) []byte {
	t.Helper()
	body := map[string]any{
		"dataset": dataset,
		"q":       q,
		"k":       k,
		"t":       tt,
		"region":  map[string]any{"lo": []float64{0.2, 0.2}, "hi": []float64{0.25, 0.25}},
	}
	for kk, v := range extra {
		body[kk] = v
	}
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func postJSON(t testing.TB, url string, body []byte) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode, out
}

// TestHTTPSearchRoundTrip: a search round-trips through the HTTP API; the
// repeat of the same request is served from the prepared cache with the
// same answer.
func TestHTTPSearchRoundTrip(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	s := New(Config{})
	if err := s.AddDataset("test", net); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := searchBody(t, "test", q, k, tt, nil)
	status, cold := postJSON(t, ts.URL+"/v1/datasets/test/search", body)
	if status != http.StatusOK {
		t.Fatalf("cold search: status %d (%v)", status, cold)
	}
	if cold["cache"] != CacheMiss {
		t.Fatalf("cold search: cache = %v, want miss", cold["cache"])
	}
	status, warm := postJSON(t, ts.URL+"/v1/datasets/test/search", body)
	if status != http.StatusOK {
		t.Fatalf("warm search: status %d (%v)", status, warm)
	}
	if warm["cache"] != CacheHit {
		t.Fatalf("warm search: cache = %v, want hit", warm["cache"])
	}
	for _, key := range []string{"ktcore_size", "partitions", "cells"} {
		if fmt.Sprint(cold[key]) != fmt.Sprint(warm[key]) {
			t.Fatalf("warm %s = %v differs from cold %v", key, warm[key], cold[key])
		}
	}
	// Same (Q,k,t), different region: still a prepared-cache hit (the
	// region resolves inside the Prepared handle).
	other := searchBody(t, "test", q, k, tt, map[string]any{
		"region": map[string]any{"lo": []float64{0.3, 0.3}, "hi": []float64{0.32, 0.32}},
	})
	status, res := postJSON(t, ts.URL+"/v1/datasets/test/search", other)
	if status != http.StatusOK || res["cache"] != CacheHit {
		t.Fatalf("other-region search: status %d cache %v, want 200 hit", status, res["cache"])
	}
	// Local algo through the same prepared state.
	local := searchBody(t, "test", q, k, tt, map[string]any{"algo": "local"})
	status, res = postJSON(t, ts.URL+"/v1/datasets/test/search", local)
	if status != http.StatusOK || res["cache"] != CacheHit {
		t.Fatalf("local search: status %d cache %v, want 200 hit", status, res["cache"])
	}
}

// TestHTTPTrussThroughCache: truss requests flow through the shared
// prepared-state cache like core requests — the repeat of a truss search is
// a cache hit with identical output, and the truss key never collides with
// the core key for the same (Q, k, t).
func TestHTTPTrussThroughCache(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	s := New(Config{})
	if err := s.AddDataset("test", net); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	truss := searchBody(t, "test", q, k, tt, map[string]any{"algo": "truss"})
	status, cold := postJSON(t, ts.URL+"/v1/datasets/test/search", truss)
	if status != http.StatusOK {
		t.Fatalf("cold truss search: status %d (%v)", status, cold)
	}
	if cold["cache"] != CacheMiss {
		t.Fatalf("cold truss search: cache = %v, want miss", cold["cache"])
	}
	status, warm := postJSON(t, ts.URL+"/v1/datasets/test/search", truss)
	if status != http.StatusOK || warm["cache"] != CacheHit {
		t.Fatalf("warm truss search: status %d cache %v, want 200 hit", status, warm["cache"])
	}
	for _, key := range []string{"ktcore_size", "partitions", "cells"} {
		if fmt.Sprint(cold[key]) != fmt.Sprint(warm[key]) {
			t.Fatalf("warm truss %s = %v differs from cold %v", key, warm[key], cold[key])
		}
	}
	// The core variant of the same (Q, k, t) prepares separately: its first
	// request must be a miss, not a hit on the truss entry.
	status, core := postJSON(t, ts.URL+"/v1/datasets/test/search", searchBody(t, "test", q, k, tt, nil))
	if status != http.StatusOK || core["cache"] != CacheMiss {
		t.Fatalf("core after truss: status %d cache %v, want 200 miss", status, core["cache"])
	}
	// The membership endpoint serves the truss variant from the same entry.
	body, _ := json.Marshal(map[string]any{"dataset": "test", "q": q, "k": k, "t": tt, "algo": "truss"})
	status, res := postJSON(t, ts.URL+"/v1/datasets/test/ktcore", body)
	if status != http.StatusOK {
		t.Fatalf("truss ktcore: status %d (%v)", status, res)
	}
	if res["ktcore_size"] == nil || int(res["ktcore_size"].(float64)) == 0 {
		t.Fatalf("truss ktcore size = %v", res["ktcore_size"])
	}
}

// TestHTTPKTCore: the ktcore endpoint returns the membership list and
// shares the prepared cache with search.
func TestHTTPKTCore(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	s := New(Config{})
	if err := s.AddDataset("test", net); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]any{"dataset": "test", "q": q, "k": k, "t": tt})
	status, res := postJSON(t, ts.URL+"/v1/datasets/test/ktcore", body)
	if status != http.StatusOK {
		t.Fatalf("ktcore: status %d (%v)", status, res)
	}
	members, ok := res["ktcore"].([]any)
	if !ok || len(members) == 0 {
		t.Fatalf("ktcore members = %v", res["ktcore"])
	}
	if int(res["ktcore_size"].(float64)) != len(members) {
		t.Fatalf("ktcore_size %v != %d members", res["ktcore_size"], len(members))
	}
	// The search endpoint now hits the same cache entry.
	status, sres := postJSON(t, ts.URL+"/v1/datasets/test/search", searchBody(t, "test", q, k, tt, nil))
	if status != http.StatusOK || sres["cache"] != CacheHit {
		t.Fatalf("search after ktcore: status %d cache %v, want 200 hit", status, sres["cache"])
	}
}

// TestHTTPValidationAndHealth: 400 on malformed requests, 404 on unknown
// datasets and on the retired body-addressed routes, healthz and stats
// respond.
func TestHTTPValidationAndHealth(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	s := New(Config{})
	if err := s.AddDataset("test", net); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name    string
		dataset string // the dataset named in the URL path
		body    []byte
		want    int
	}{
		{"unknown dataset", "nope", searchBody(t, "nope", q, k, tt, nil), http.StatusNotFound},
		{"bad k", "test", searchBody(t, "test", q, 0, tt, nil), http.StatusBadRequest},
		{"no region", "test", mustJSON(t, map[string]any{"dataset": "test", "q": q, "k": k, "t": tt}), http.StatusBadRequest},
		{"bad algo", "test", searchBody(t, "test", q, k, tt, map[string]any{"algo": "quantum"}), http.StatusBadRequest},
		{"empty q", "test", searchBody(t, "test", []int32{}, k, tt, nil), http.StatusBadRequest},
		{"garbage", "test", []byte("{"), http.StatusBadRequest},
		{"body dataset contradicts path", "test", searchBody(t, "other", q, k, tt, nil), http.StatusBadRequest},
	}
	for _, tc := range cases {
		if status, res := postJSON(t, ts.URL+"/v1/datasets/"+tc.dataset+"/search", tc.body); status != tc.want {
			t.Fatalf("%s: status %d (%v), want %d", tc.name, status, res, tc.want)
		}
	}
	// The body-addressed routes are gone: a valid body answers the mux's
	// plain-text 404.
	for _, path := range []string{"/v1/search", "/v1/ktcore"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(searchBody(t, "test", q, k, tt, nil)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("POST %s: status %d, want 404", path, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Requests == 0 || stats.Failed == 0 {
		t.Fatalf("stats = %+v, want recorded requests and failures", stats)
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAdmissionSaturation: with a full in-flight slot and a full queue, the
// next request is rejected with 429 immediately; queued work completes once
// the slot frees.
func TestAdmissionSaturation(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	gate := &gateOracle{
		inner:   road.RangeQuerier{G: net.Road},
		gate:    make(chan struct{}),
		started: make(chan struct{}, 8),
	}
	gated := *net
	gated.Oracle = gate
	s := New(Config{MaxInFlight: 1, MaxQueue: 1, DefaultTimeout: 30 * time.Second})
	if err := s.AddDataset("test", &gated); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		status int
		body   map[string]any
	}
	results := make(chan result, 2)
	// Distinct (k,t) per request so they do not coalesce in the cache.
	launch := func(tOffset float64) {
		go func() {
			status, body := postJSON(t, ts.URL+"/v1/datasets/test/search", searchBody(t, "test", q, k, tt+tOffset, nil))
			results <- result{status, body}
		}()
	}
	launch(0)
	<-gate.started // request A holds the in-flight slot inside the oracle
	launch(1)
	for s.Stats().Queued == 0 { // request B sits in the queue
		runtime.Gosched()
	}
	// Request C: queue full → immediate 429.
	status, body := postJSON(t, ts.URL+"/v1/datasets/test/search", searchBody(t, "test", q, k, tt+2, nil))
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status %d (%v), want 429", status, body)
	}
	if s.Stats().RejectedSaturated == 0 {
		t.Fatal("rejected_saturated counter not incremented")
	}
	close(gate.gate)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("admitted request finished with %d (%v)", r.status, r.body)
		}
	}
}

// TestDeadlinePropagatesToCancel: a request whose deadline expires while the
// search is running is abandoned via Query.Cancel and answered with 504
// instead of running to completion.
func TestDeadlinePropagatesToCancel(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	gate := &gateOracle{
		inner:   road.RangeQuerier{G: net.Road},
		gate:    make(chan struct{}),
		started: make(chan struct{}, 8),
	}
	gated := *net
	gated.Oracle = gate
	s := New(Config{})
	if err := s.AddDataset("test", &gated); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan result504, 1)
	go func() {
		status, body := postJSON(t, ts.URL+"/v1/datasets/test/search",
			searchBody(t, "test", q, k, tt, map[string]any{"timeout_ms": 40}))
		done <- result504{status, body}
	}()
	<-gate.started // the oracle holds the search past its deadline
	time.Sleep(60 * time.Millisecond)
	close(gate.gate) // oracle returns; the engine must now observe Cancel
	r := <-done
	if r.status != http.StatusGatewayTimeout {
		t.Fatalf("deadline request: status %d (%v), want 504", r.status, r.body)
	}
	if s.Stats().DeadlineExceeded == 0 {
		t.Fatal("deadline_exceeded counter not incremented")
	}
}

type result504 struct {
	status int
	body   map[string]any
}

// TestHTTPSingleflight: two concurrent identical requests coalesce onto one
// preparation; both answers succeed.
func TestHTTPSingleflight(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	gate := &gateOracle{
		inner:   road.RangeQuerier{G: net.Road},
		gate:    make(chan struct{}),
		started: make(chan struct{}, 8),
	}
	gated := *net
	gated.Oracle = gate
	s := New(Config{MaxInFlight: 4, DefaultTimeout: 30 * time.Second})
	if err := s.AddDataset("test", &gated); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	statuses := make([]int, 2)
	for i := range statuses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _ = postJSON(t, ts.URL+"/v1/datasets/test/search", searchBody(t, "test", q, k, tt, nil))
		}(i)
	}
	<-gate.started
	for s.cache.stats().Coalesced == 0 {
		runtime.Gosched()
	}
	close(gate.gate)
	wg.Wait()
	for i, st := range statuses {
		if st != http.StatusOK {
			t.Fatalf("request %d: status %d", i, st)
		}
	}
	if calls := gate.calls.Load(); calls != 1 {
		t.Fatalf("oracle ran %d times, want 1 (singleflight)", calls)
	}
	cs := s.cache.stats()
	if cs.Misses != 1 || cs.Coalesced != 1 {
		t.Fatalf("cache stats = %+v, want 1 miss + 1 coalesced", cs)
	}
}

// TestCanceledBuilderDoesNotPoisonWaiters: when the request that won the
// single-flight build exceeds its deadline mid-Prepare, a coalesced waiter
// with a healthy deadline takes over the build instead of inheriting the
// 504.
func TestCanceledBuilderDoesNotPoisonWaiters(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	gate := &gateOracle{
		inner:   road.RangeQuerier{G: net.Road},
		gate:    make(chan struct{}),
		started: make(chan struct{}, 8),
	}
	gated := *net
	gated.Oracle = gate
	s := New(Config{MaxInFlight: 4})
	if err := s.AddDataset("test", &gated); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type reply struct {
		status int
		body   map[string]any
	}
	// Builder: short deadline, will be canceled while the oracle holds it.
	builderDone := make(chan reply, 1)
	go func() {
		status, body := postJSON(t, ts.URL+"/v1/datasets/test/search",
			searchBody(t, "test", q, k, tt, map[string]any{"timeout_ms": 40}))
		builderDone <- reply{status, body}
	}()
	<-gate.started
	// Waiter: generous deadline, coalesces on the same key.
	waiterDone := make(chan reply, 1)
	go func() {
		status, body := postJSON(t, ts.URL+"/v1/datasets/test/search",
			searchBody(t, "test", q, k, tt, map[string]any{"timeout_ms": 30000}))
		waiterDone <- reply{status, body}
	}()
	for s.cache.stats().Coalesced == 0 {
		runtime.Gosched()
	}
	time.Sleep(60 * time.Millisecond) // builder's deadline fires mid-build
	close(gate.gate)
	if r := <-builderDone; r.status != http.StatusGatewayTimeout {
		t.Fatalf("builder: status %d (%v), want 504", r.status, r.body)
	}
	r := <-waiterDone
	if r.status != http.StatusOK {
		t.Fatalf("waiter: status %d (%v), want 200 via takeover", r.status, r.body)
	}
	if calls := gate.calls.Load(); calls != 2 {
		t.Fatalf("oracle ran %d times, want 2 (canceled build + takeover)", calls)
	}
}

// TestConcurrentMixedLoad: a burst of concurrent requests over several keys
// and endpoints completes without races (run with -race) and with every
// admitted answer consistent.
func TestConcurrentMixedLoad(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	s := New(Config{MaxInFlight: 4, MaxQueue: 64, CacheCapacity: 4})
	if err := s.AddDataset("test", net); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				status, body := postJSON(t, ts.URL+"/v1/datasets/test/search", searchBody(t, "test", q, k, tt+float64(i%4), nil))
				if status != http.StatusOK {
					t.Errorf("search %d: status %d (%v)", i, status, body)
				}
			case 1:
				body, _ := json.Marshal(map[string]any{"dataset": "test", "q": q, "k": k, "t": tt})
				if status, res := postJSON(t, ts.URL+"/v1/datasets/test/ktcore", body); status != http.StatusOK {
					t.Errorf("ktcore %d: status %d (%v)", i, status, res)
				}
			default:
				resp, err := http.Get(ts.URL + "/v1/stats")
				if err != nil {
					t.Errorf("stats %d: %v", i, err)
					return
				}
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()
	st := s.Stats()
	if st.Completed == 0 || st.Latency.Count == 0 {
		t.Fatalf("stats after load = %+v", st)
	}
}
