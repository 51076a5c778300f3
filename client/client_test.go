package client_test

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"roadsocial/client"
	"roadsocial/internal/gen"
	"roadsocial/internal/mac"
	"roadsocial/internal/service"
	"roadsocial/internal/shard"
)

// liveServer spins up a real service over a small synthetic network and
// returns the SDK pointed at it plus a feasible workload.
func liveServer(t testing.TB) (*client.Client, []int32, int, float64) {
	t.Helper()
	net, q, k, tt := testNetwork(t)
	srv := service.New(service.Config{
		LoadSpec: func(string, *client.DatasetSpec) (*mac.Network, uint64, error) { return net, 0, nil },
	})
	if err := srv.AddDataset("live", net); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return client.New(ts.URL), q, k, tt
}

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

var testRegion = &client.RegionSpec{Lo: []float64{0.2, 0.2}, Hi: []float64{0.25, 0.25}}

// TestSDKRoundTrips drives every SDK method against a live server: search
// (cold miss then warm hit), ktcore, batch, dataset lifecycle, stats, and
// health — the full typed contract end to end.
func TestSDKRoundTrips(t *testing.T) {
	sdk, q, k, tt := liveServer(t)
	ctx := context.Background()

	req := &client.SearchRequest{Q: q, K: k, T: tt, Region: testRegion}
	cold, err := sdk.Search(ctx, "live", req)
	if err != nil {
		t.Fatalf("cold search: %v", err)
	}
	if cold.Dataset != "live" || cold.Cache != client.CacheMiss || cold.KTCoreSize == 0 || cold.Partitions == 0 {
		t.Fatalf("cold = %+v", cold)
	}
	if cold.Stats == nil || cold.Stats.KTCoreSize != cold.KTCoreSize {
		t.Fatalf("cold stats = %+v", cold.Stats)
	}
	warm, err := sdk.Search(ctx, "live", req)
	if err != nil {
		t.Fatalf("warm search: %v", err)
	}
	if warm.Cache != client.CacheHit || warm.KTCoreSize != cold.KTCoreSize {
		t.Fatalf("warm = %+v", warm)
	}

	kt, err := sdk.KTCore(ctx, "live", &client.SearchRequest{Q: q, K: k, T: tt})
	if err != nil {
		t.Fatalf("ktcore: %v", err)
	}
	if len(kt.KTCore) != kt.KTCoreSize || kt.KTCoreSize != cold.KTCoreSize {
		t.Fatalf("ktcore = %+v", kt)
	}

	truss, err := sdk.KTCore(ctx, "live", &client.SearchRequest{Q: q, K: 3, T: tt, Algo: client.AlgoTruss})
	if err != nil {
		t.Fatalf("truss ktcore: %v", err)
	}
	if truss.Algo != client.AlgoTruss {
		t.Fatalf("truss = %+v", truss)
	}

	batch, err := sdk.Batch(ctx, &client.BatchRequest{Items: []client.BatchItem{
		{SearchRequest: client.SearchRequest{Dataset: "live", Q: q, K: k, T: tt, Region: testRegion}},
		{Op: client.OpKTCore, SearchRequest: client.SearchRequest{Dataset: "live", Q: q, K: k, T: tt}},
	}})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if batch.OK != 2 || batch.Failed != 0 || len(batch.Items) != 2 {
		t.Fatalf("batch = %+v", batch)
	}
	if batch.Items[0].Response.Partitions != cold.Partitions {
		t.Fatalf("batch search differs from direct search: %+v", batch.Items[0].Response)
	}

	info, err := sdk.CreateDataset(ctx, "second", &client.DatasetSpec{})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if info.Dataset != "second" || info.Users == 0 {
		t.Fatalf("create info = %+v", info)
	}
	if _, err := sdk.Search(ctx, "second", req); err != nil {
		t.Fatalf("search on created dataset: %v", err)
	}
	if err := sdk.DeleteDataset(ctx, "second"); err != nil {
		t.Fatalf("delete: %v", err)
	}

	st, err := sdk.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Requests == 0 || st.Cache.Hits == 0 || st.Latency.Count == 0 || len(st.Latency.Buckets) == 0 {
		t.Fatalf("stats = %+v", st)
	}
	h, err := sdk.Health(ctx)
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	if h.Status != "ok" || len(h.Datasets) != 1 || h.Datasets[0] != "live" {
		t.Fatalf("health = %+v", h)
	}

	// Typed errors carry the status.
	if _, err := sdk.Search(ctx, "ghost", req); client.StatusOf(err) != http.StatusNotFound {
		t.Fatalf("ghost dataset: err=%v, want 404", err)
	}
	if _, err := sdk.Search(ctx, "live", &client.SearchRequest{Q: q, K: 0, T: tt, Region: testRegion}); client.StatusOf(err) != http.StatusBadRequest {
		t.Fatalf("invalid k: err=%v, want 400", err)
	}
}

// TestSDKAgainstRouter: the same SDK calls work unchanged against a shard
// router — Stats normalizes the aggregated payload and Health unions the
// per-shard dataset lists.
func TestSDKAgainstRouter(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	cfg := service.Config{
		LoadSpec: func(string, *client.DatasetSpec) (*mac.Network, uint64, error) { return net, 0, nil },
	}
	locals := []shard.Backend{
		shard.NewLocal("shard-0", service.New(cfg)),
		shard.NewLocal("shard-1", service.New(cfg)),
	}
	rt, err := shard.NewRouter(locals, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	ctx := context.Background()
	sdk := client.New(ts.URL)
	for _, name := range []string{"alpha", "beta", "gamma"} {
		if _, err := sdk.CreateDataset(ctx, name, &client.DatasetSpec{}); err != nil {
			t.Fatal(err)
		}
		if _, err := sdk.Search(ctx, name, &client.SearchRequest{Q: q, K: k, T: tt, Region: testRegion}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	st, err := sdk.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 3 || len(st.Datasets) != 3 {
		t.Fatalf("router stats = %+v", st)
	}
	h, err := sdk.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.Datasets) != 3 {
		t.Fatalf("router health = %+v", h)
	}
}

// TestHotKeysRoundTrip: keys prepared by ktcore/search surface through GET
// /v1/datasets/{name}/hotkeys in replayable form — the working set a router
// uses to pre-warm a freshly synced replica — with the engine each key was
// prepared by.
func TestHotKeysRoundTrip(t *testing.T) {
	sdk, q, k, tt := liveServer(t)
	ctx := context.Background()
	const trussK = 3
	for _, req := range []*client.SearchRequest{
		{Q: q, K: k, T: tt},
		{Q: q, K: trussK, T: tt, Algo: client.AlgoTruss},
	} {
		resp, err := sdk.KTCore(ctx, "live", req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.NoCommunity {
			t.Fatalf("%s key has no community; the test needs a cached entry", req.Algo)
		}
	}
	hot, err := sdk.HotKeys(ctx, "live")
	if err != nil {
		t.Fatal(err)
	}
	if hot.Dataset != "live" || len(hot.Keys) != 2 {
		t.Fatalf("hot keys = %+v, want the core and the truss key", hot)
	}
	found := map[client.Algo]bool{}
	for _, hk := range hot.Keys {
		if hk.T == tt && len(hk.Q) == len(q) &&
			(hk.Algo == client.AlgoGlobal && hk.K == k || hk.Algo == client.AlgoTruss && hk.K == trussK) {
			found[hk.Algo] = true
		}
	}
	if !found[client.AlgoGlobal] || !found[client.AlgoTruss] {
		t.Fatalf("hot keys %+v, want the core key (k=%d) and the truss key (k=%d)", hot.Keys, k, trussK)
	}
	if _, err := sdk.HotKeys(ctx, "ghost"); !client.IsNotFound(err) {
		t.Fatalf("hot keys of unknown dataset: err=%v, want typed not_found", err)
	}
}
