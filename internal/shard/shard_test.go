package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"roadsocial/internal/gen"
	"roadsocial/internal/mac"
	"roadsocial/internal/service"
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

// twoShardRouter builds a 2-shard router and registers datasets on their
// ring owners, returning the router plus the per-dataset owner index.
func twoShardRouter(t testing.TB, datasets []string, net *mac.Network) (*Router, []*Local, map[string]int) {
	t.Helper()
	// A deep queue and a generous deadline: these tests assert routing, not
	// saturation or timeouts, and CI runners may have few cores (searches
	// run much slower under -race).
	cfg := service.Config{MaxInFlight: 2, MaxQueue: 64, DefaultTimeout: 120 * time.Second}
	locals := []*Local{
		NewLocal("shard-0", service.New(cfg)),
		NewLocal("shard-1", service.New(cfg)),
	}
	rt, err := NewRouter([]Backend{locals[0], locals[1]}, 0)
	if err != nil {
		t.Fatal(err)
	}
	owners := make(map[string]int, len(datasets))
	for _, ds := range datasets {
		idx := rt.OwnerIndex(ds)
		owners[ds] = idx
		if err := locals[idx].Server().AddDataset(ds, net); err != nil {
			t.Fatal(err)
		}
	}
	return rt, locals, owners
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

func searchBody(t testing.TB, dataset string, q []int32, k int, tt float64) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{
		"dataset": dataset, "q": q, "k": k, "t": tt,
		"region": map[string]any{"lo": []float64{0.2, 0.2}, "hi": []float64{0.25, 0.25}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRingDeterministicAndBalanced: ownership is stable across router
// instances and spreads many datasets over both shards.
func TestRingDeterministicAndBalanced(t *testing.T) {
	mk := func() *Router {
		rt, err := NewRouter([]Backend{
			NewLocal("shard-0", service.New(service.Config{})),
			NewLocal("shard-1", service.New(service.Config{})),
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	a, b := mk(), mk()
	counts := [2]int{}
	for i := 0; i < 200; i++ {
		ds := fmt.Sprintf("dataset-%d", i)
		if a.OwnerIndex(ds) != b.OwnerIndex(ds) {
			t.Fatalf("%s: owner differs across router instances", ds)
		}
		counts[a.OwnerIndex(ds)]++
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("degenerate partition: %v", counts)
	}
	if _, err := NewRouter([]Backend{
		NewLocal("dup", service.New(service.Config{})),
		NewLocal("dup", service.New(service.Config{})),
	}, 0); err == nil {
		t.Fatal("duplicate backend names must be rejected")
	}
	if _, err := NewRouter(nil, 0); err == nil {
		t.Fatal("empty backend set must be rejected")
	}
}

// TestRouteLandsOnOwningShard: a search for each dataset is served by its
// ring owner — visible in the per-shard request counters — and responses
// round-trip unchanged through the router.
func TestRouteLandsOnOwningShard(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	datasets := []string{"alpha", "beta", "gamma", "delta"}
	rt, locals, owners := twoShardRouter(t, datasets, net)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	wantRequests := [2]int64{}
	for _, ds := range datasets {
		status, res := postJSON(t, ts.URL+"/v1/datasets/"+ds+"/search", searchBody(t, ds, q, k, tt))
		if status != http.StatusOK {
			t.Fatalf("%s: status %d (%v)", ds, status, res)
		}
		if res["dataset"] != ds {
			t.Fatalf("%s: response dataset %v", ds, res["dataset"])
		}
		wantRequests[owners[ds]]++
	}
	for i, l := range locals {
		if got := l.Server().Stats().Requests; got != wantRequests[i] {
			t.Fatalf("shard %d served %d requests, want %d", i, got, wantRequests[i])
		}
	}
	// A dataset registered on its owner is invisible to the other shard:
	// routing determinism is what keeps this a 404-free deployment.
	for _, ds := range datasets {
		other := locals[1-owners[ds]]
		for _, registered := range mustDatasets(t, other) {
			if registered == ds {
				t.Fatalf("%s registered on non-owner shard", ds)
			}
		}
	}
	// The body-addressed routes are gone: a valid body answers the mux's
	// plain-text 404 rather than being routed by a body peek.
	for _, path := range []string{"/v1/search", "/v1/ktcore"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(searchBody(t, datasets[0], q, k, tt)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("POST %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func mustDatasets(t testing.TB, b Backend) []string {
	t.Helper()
	ds, err := b.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestStatsAggregation: /v1/stats sums per-shard counters and unions
// datasets; /v1/healthz reports every shard healthy.
func TestStatsAggregation(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	datasets := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	rt, _, _ := twoShardRouter(t, datasets, net)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	for _, ds := range datasets {
		if status, res := postJSON(t, ts.URL+"/v1/datasets/"+ds+"/search", searchBody(t, ds, q, k, tt)); status != http.StatusOK {
			t.Fatalf("%s: status %d (%v)", ds, status, res)
		}
	}
	var agg Stats
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if agg.Shards != 2 || agg.Down != 0 {
		t.Fatalf("agg = %+v, want 2 shards up", agg)
	}
	if agg.Totals.Requests != int64(len(datasets)) || agg.Totals.Completed != int64(len(datasets)) {
		t.Fatalf("totals = %+v, want %d requests completed", agg.Totals, len(datasets))
	}
	if len(agg.Totals.Datasets) != len(datasets) {
		t.Fatalf("aggregated datasets = %v", agg.Totals.Datasets)
	}
	if agg.Totals.Latency.Count != int64(len(datasets)) || agg.Totals.Latency.MeanMs <= 0 {
		t.Fatalf("aggregated latency = %+v", agg.Totals.Latency)
	}

	var health struct {
		Status string        `json:"status"`
		Shards []ShardHealth `json:"shards"`
	}
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || len(health.Shards) != 2 {
		t.Fatalf("health = %+v", health)
	}
	for _, sh := range health.Shards {
		if !sh.Ok {
			t.Fatalf("shard %s unhealthy: %s", sh.Name, sh.Error)
		}
	}
}

// TestRemoteShardRoundTripAndDown: a remote backend proxies requests to a
// live macserver-shaped server, and answers 502 with a down marker in
// health/stats once the server goes away.
func TestRemoteShardRoundTripAndDown(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	srv := service.New(service.Config{})
	if err := srv.AddDataset("remote-ds", net); err != nil {
		t.Fatal(err)
	}
	backendTS := httptest.NewServer(srv.Handler())

	remote := NewRemote("remote-0", backendTS.URL, nil)
	rt, err := NewRouter([]Backend{remote}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	status, res := postJSON(t, ts.URL+"/v1/datasets/remote-ds/search", searchBody(t, "remote-ds", q, k, tt))
	if status != http.StatusOK || res["dataset"] != "remote-ds" {
		t.Fatalf("remote round trip: status %d (%v)", status, res)
	}
	agg := rt.Stats()
	if agg.Down != 0 || agg.Totals.Requests != 1 {
		t.Fatalf("remote stats = %+v", agg)
	}

	// Kill the backend: its datasets now answer 502 and stats mark it down.
	backendTS.Close()
	status, res = postJSON(t, ts.URL+"/v1/datasets/remote-ds/search", searchBody(t, "remote-ds", q, k, tt))
	if status != http.StatusBadGateway {
		t.Fatalf("down shard: status %d (%v), want 502", status, res)
	}
	if errStr, _ := res["error"].(string); errStr == "" {
		t.Fatalf("down shard: missing error body (%v)", res)
	}
	agg = rt.Stats()
	if agg.Down != 1 || agg.PerShard[0].Ok {
		t.Fatalf("down shard stats = %+v, want marked down", agg)
	}
	var health struct {
		Status string `json:"status"`
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	// The whole (1-shard) fleet is unreachable: that is dead, not degraded.
	if resp.StatusCode != http.StatusServiceUnavailable || health.Status != "down" {
		t.Fatalf("health = %d %q, want 503 down", resp.StatusCode, health.Status)
	}
	resp.Body.Close()
}

// TestHealthzDegraded: a fleet with one of two shards down reports degraded
// with HTTP 200 — the healthy shard keeps serving its datasets.
func TestHealthzDegraded(t *testing.T) {
	srv := service.New(service.Config{})
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	rt, err := NewRouter([]Backend{
		NewLocal("up", srv),
		NewRemote("down", deadURL, nil),
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Status string        `json:"status"`
		Shards []ShardHealth `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || health.Status != "degraded" {
		t.Fatalf("health = %d %q, want 200 degraded", resp.StatusCode, health.Status)
	}
}

// TestConcurrentShardedLoad: concurrent requests across shards and stats
// fan-outs complete without races (run with -race).
func TestConcurrentShardedLoad(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	datasets := []string{"alpha", "beta", "gamma", "delta"}
	rt, _, _ := twoShardRouter(t, datasets, net)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%4 == 3 {
				resp, err := http.Get(ts.URL + "/v1/stats")
				if err != nil {
					t.Errorf("stats: %v", err)
					return
				}
				resp.Body.Close()
				return
			}
			ds := datasets[i%len(datasets)]
			status, res := postJSON(t, ts.URL+"/v1/datasets/"+ds+"/search", searchBody(t, ds, q, k, tt))
			if status != http.StatusOK {
				t.Errorf("%s: status %d (%v)", ds, status, res)
			}
		}(i)
	}
	wg.Wait()
	if agg := rt.Stats(); agg.Totals.Completed == 0 {
		t.Fatalf("no completed requests in %+v", agg)
	}
}
