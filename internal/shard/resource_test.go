package shard

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"roadsocial/client"
	"roadsocial/internal/mac"
	"roadsocial/internal/service"
)

// loaderRouter builds a 2-shard router whose services materialize any spec
// into the given prebuilt network — the shard tests assert routing and
// lifecycle, not file parsing.
func loaderRouter(t testing.TB, net *mac.Network) (*Router, []*Local) {
	t.Helper()
	cfg := service.Config{
		MaxInFlight:    2,
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

// TestDatasetMoveAcrossShards: a dataset registered through the router
// lands on its ring owner and serves through the URL-routed search path;
// deleting it and re-creating it pinned to the other shard moves ownership
// — later searches route to the new owner — while a bystander dataset keeps
// answering throughout. No process restarts anywhere.
func TestDatasetMoveAcrossShards(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	rt, locals := loaderRouter(t, net)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	ctx := context.Background()
	sdk := client.New(ts.URL)
	region := &client.RegionSpec{Lo: []float64{0.2, 0.2}, Hi: []float64{0.25, 0.25}}
	req := func(dt float64) *client.SearchRequest {
		return &client.SearchRequest{Q: q, K: k, T: tt + dt, Region: region}
	}

	// A bystander dataset that must never miss a beat.
	if _, err := sdk.CreateDataset(ctx, "bystander", &client.DatasetSpec{}); err != nil {
		t.Fatal(err)
	}
	checkBystander := func(step string, dt float64) {
		t.Helper()
		if _, err := sdk.Search(ctx, "bystander", req(dt)); err != nil {
			t.Fatalf("%s: bystander search failed: %v", step, err)
		}
	}
	checkBystander("initial", 0)

	info, err := sdk.CreateDataset(ctx, "mover", &client.DatasetSpec{})
	if err != nil {
		t.Fatal(err)
	}
	home := rt.OwnerIndex("mover")
	if info.Shard != locals[home].Name() {
		t.Fatalf("create landed on %q, want ring owner %q", info.Shard, locals[home].Name())
	}
	if _, err := sdk.Search(ctx, "mover", req(1)); err != nil {
		t.Fatalf("search before move: %v", err)
	}
	homeRequests := locals[home].Server().Stats().Requests

	// Move: delete, re-create pinned to the other shard.
	away := 1 - home
	if err := sdk.DeleteDataset(ctx, "mover"); err != nil {
		t.Fatalf("delete for move: %v", err)
	}
	checkBystander("mid-move", 2)
	info, err = sdk.CreateDataset(ctx, "mover", &client.DatasetSpec{Shard: locals[away].Name()})
	if err != nil {
		t.Fatalf("pinned create: %v", err)
	}
	if info.Shard != locals[away].Name() {
		t.Fatalf("pinned create landed on %q, want %q", info.Shard, locals[away].Name())
	}

	// The URL-routed path now reaches the new owner.
	awayBefore := locals[away].Server().Stats().Requests
	if _, err := sdk.Search(ctx, "mover", req(3)); err != nil {
		t.Fatalf("search after move: %v", err)
	}
	if got := locals[away].Server().Stats().Requests - awayBefore; got != 1 {
		t.Fatalf("new owner served %d requests after move, want 1", got)
	}
	if got := locals[home].Server().Stats().Requests; got != homeRequests {
		t.Fatalf("old owner request count moved %d -> %d; it should see no mover traffic", homeRequests, got)
	}
	// The old owner no longer holds the dataset.
	for _, ds := range mustDatasets(t, locals[home]) {
		if ds == "mover" {
			t.Fatal("mover still registered on its old shard")
		}
	}
	checkBystander("after move", 5)

	// Re-pinning a live dataset somewhere else without deleting it first
	// is refused — the router must not mint a silent second copy.
	if _, err := sdk.CreateDataset(ctx, "mover", &client.DatasetSpec{Shard: locals[home].Name()}); client.StatusOf(err) != http.StatusConflict {
		t.Fatalf("pin of live dataset: err=%v, want 409", err)
	}

	// A fresh router over the same backends (a routing-tier restart) has
	// lost the assignment; SyncAssignments rebuilds it from the shards'
	// actual dataset lists.
	rt2, err := NewRouter([]Backend{locals[0], locals[1]}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rt2.OwnerIndex("mover") != home {
		t.Fatal("fresh router should fall back to the ring owner before sync")
	}
	if pins := rt2.SyncAssignments(); pins != 1 {
		t.Fatalf("SyncAssignments recovered %d pins, want 1", pins)
	}
	if rt2.OwnerIndex("mover") != away {
		t.Fatal("synced router must route mover to its actual shard")
	}

	// Pinning to a shard that does not exist is a router-level 400.
	if _, err := sdk.CreateDataset(ctx, "nowhere", &client.DatasetSpec{Shard: "shard-99"}); client.StatusOf(err) != http.StatusBadRequest {
		t.Fatalf("unknown pin: err=%v, want 400", err)
	}
}

// TestBatchFanoutAcrossShards: a batch whose items live on different shards
// splits, runs one sub-batch (one admission) per shard, and merges per-item
// results in request order; unknown datasets fail item-wise only.
func TestBatchFanoutAcrossShards(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	// Find two dataset names owned by different shards.
	rt, locals := loaderRouter(t, net)
	names := []string{}
	seen := map[int]bool{}
	for i := 0; len(names) < 2 && i < 100; i++ {
		name := "ds-" + string(rune('a'+i))
		if idx := rt.OwnerIndex(name); !seen[idx] {
			seen[idx] = true
			names = append(names, name)
		}
	}
	if len(names) < 2 {
		t.Fatal("could not find names on distinct shards")
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	ctx := context.Background()
	sdk := client.New(ts.URL)
	for _, name := range names {
		if _, err := sdk.CreateDataset(ctx, name, &client.DatasetSpec{}); err != nil {
			t.Fatal(err)
		}
	}

	region := &client.RegionSpec{Lo: []float64{0.2, 0.2}, Hi: []float64{0.25, 0.25}}
	item := func(ds string, dt float64) client.BatchItem {
		return client.BatchItem{SearchRequest: client.SearchRequest{
			Dataset: ds, Q: q, K: k, T: tt + dt, Region: region,
		}}
	}
	ktItem := client.BatchItem{Op: client.OpKTCore, SearchRequest: client.SearchRequest{
		Dataset: names[1], Q: q, K: k, T: tt,
	}}
	resp, err := sdk.Batch(ctx, &client.BatchRequest{Items: []client.BatchItem{
		item(names[0], 0),
		item(names[1], 1),
		{SearchRequest: client.SearchRequest{Dataset: "ghost", Q: q, K: k, T: tt, Region: region}},
		ktItem,
		item(names[0], 2),
	}})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	want := []int{200, 200, 404, 200, 200}
	for i, st := range want {
		if resp.Items[i].Status != st {
			t.Fatalf("item %d: status %d (%s), want %d", i, resp.Items[i].Status, resp.Items[i].Error, st)
		}
	}
	if resp.OK != 4 || resp.Failed != 1 {
		t.Fatalf("tallies = %d/%d, want 4 ok / 1 failed", resp.OK, resp.Failed)
	}
	// Results scattered back to their request positions.
	if resp.Items[0].Response.Dataset != names[0] || resp.Items[1].Response.Dataset != names[1] {
		t.Fatalf("responses out of order: %q, %q", resp.Items[0].Response.Dataset, resp.Items[1].Response.Dataset)
	}
	if len(resp.Items[3].Response.KTCore) == 0 {
		t.Fatal("ktcore item returned no members")
	}
	// Every item counts as one request on the shard whose sub-batch it
	// rode ("ghost" hashes to one of the two; the dataset lifecycle calls
	// are not search requests), so the fleet total is the item count.
	total := int64(0)
	for _, l := range locals {
		st := l.Server().Stats()
		if st.Requests < 2 {
			t.Fatalf("shard %s saw %d requests, want its sub-batch of >= 2 items", l.Name(), st.Requests)
		}
		total += st.Requests
	}
	if total != 5 {
		t.Fatalf("fleet saw %d item-requests, want 5", total)
	}
}

// TestStatsMergedQuantiles: the aggregated latency quantiles come from the
// merged histograms — they sit within the per-shard range (a true union
// quantile), and the merged histogram is exposed for the next tier up.
func TestStatsMergedQuantiles(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	datasets := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	rt, _, _ := twoShardRouter(t, datasets, net)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	for i, ds := range datasets {
		if status, res := postJSON(t, ts.URL+"/v1/datasets/"+ds+"/search", searchBody(t, ds, q, k, tt+float64(i))); status != http.StatusOK {
			t.Fatalf("%s: status %d (%v)", ds, status, res)
		}
	}
	agg := rt.Stats()
	lat := agg.Totals.Latency
	if lat.Count != int64(len(datasets)) {
		t.Fatalf("merged count = %d, want %d", lat.Count, len(datasets))
	}
	if len(lat.Buckets) == 0 {
		t.Fatal("merged stats carry no histogram")
	}
	var lo, hi float64
	for _, ss := range agg.PerShard {
		if ss.Stats == nil || ss.Stats.Latency.Count == 0 {
			continue
		}
		p50 := ss.Stats.Latency.P50Ms
		if lo == 0 || p50 < lo {
			lo = p50
		}
		if p50 > hi {
			hi = p50
		}
	}
	if lat.P50Ms < lo*0.99 || lat.P50Ms > hi*1.01 {
		t.Fatalf("merged p50 %g outside per-shard range [%g, %g]", lat.P50Ms, lo, hi)
	}
	if lat.P99Ms < lat.P50Ms {
		t.Fatalf("merged p99 %g below p50 %g", lat.P99Ms, lat.P50Ms)
	}
}

// TestRemoteTokenForwarding: a router over a Remote backend reaches an
// auth-protected leaf — probes and proxied requests carry the shared
// secret, and a client without the token is refused at the router's leaf.
func TestRemoteTokenForwarding(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	leaf := service.New(service.Config{AuthToken: "sesame"})
	if err := leaf.AddDataset("remote-ds", net); err != nil {
		t.Fatal(err)
	}
	leafTS := httptest.NewServer(leaf.Handler())
	defer leafTS.Close()

	rt, err := NewRouter([]Backend{NewRemote("remote-0", leafTS.URL, nil, WithToken("sesame"))}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	// Probes authenticate with the backend's own token.
	if agg := rt.Stats(); agg.Down != 0 {
		t.Fatalf("authed probe marked shard down: %+v", agg.PerShard)
	}
	// A proxied request without a client token also rides the backend's
	// token (tier auth, not end-user auth).
	status, res := postJSON(t, ts.URL+"/v1/datasets/remote-ds/search", searchBody(t, "remote-ds", q, k, tt))
	if status != http.StatusOK {
		t.Fatalf("proxied search: status %d (%v)", status, res)
	}
	// A wrong end-client token is forwarded as-is and refused by the leaf.
	c := client.New(ts.URL, client.WithToken("wrong"), client.WithRetries(0))
	if _, err := c.Search(context.Background(), "remote-ds", &client.SearchRequest{
		Q: q, K: k, T: tt,
		Region: &client.RegionSpec{Lo: []float64{0.2, 0.2}, Hi: []float64{0.25, 0.25}},
	}); client.StatusOf(err) != http.StatusUnauthorized {
		t.Fatalf("wrong token through router: err=%v, want 401", err)
	}
}

// TestClientRetriesMidMove502: the SDK's read path retries a 502 — the
// answer a router gives while a dataset's shard is down or mid-move — and
// succeeds once the shard returns.
func TestClientRetriesMidMove502(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	srv := service.New(service.Config{})
	if err := srv.AddDataset("flappy", net); err != nil {
		t.Fatal(err)
	}
	inner := srv.Handler()
	var fails int32 = 2
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fails > 0 {
			fails--
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadGateway)
			_, _ = w.Write([]byte(`{"error": "shard mid-move"}`))
			return
		}
		inner.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(flaky)
	defer ts.Close()

	sdk := client.New(ts.URL, client.WithRetries(2), client.WithBackoff(time.Millisecond))
	resp, err := sdk.Search(context.Background(), "flappy", &client.SearchRequest{
		Q: q, K: k, T: tt,
		Region: &client.RegionSpec{Lo: []float64{0.2, 0.2}, Hi: []float64{0.25, 0.25}},
	})
	if err != nil {
		t.Fatalf("search through flaky shard: %v", err)
	}
	if resp.KTCoreSize == 0 {
		t.Fatalf("flaky response = %+v", resp)
	}
	// With retries disabled the 502 surfaces.
	fails = 1
	if _, err := client.New(ts.URL, client.WithRetries(0)).Search(context.Background(), "flappy", &client.SearchRequest{
		Q: q, K: k, T: tt,
		Region: &client.RegionSpec{Lo: []float64{0.2, 0.2}, Hi: []float64{0.25, 0.25}},
	}); client.StatusOf(err) != http.StatusBadGateway {
		t.Fatalf("retries=0: err=%v, want 502", err)
	}
}
