package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roadsocial/client"
	"roadsocial/internal/dataset"
	"roadsocial/internal/mac"
)

// writeDatasetFiles dumps a network into the four on-disk spec files and
// returns the spec pointing at them.
func writeDatasetFiles(t testing.TB, net *mac.Network) *DatasetSpec {
	t.Helper()
	dir := t.TempDir()
	write := func(name string, fn func(f *os.File) error) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := fn(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	return &DatasetSpec{
		Social: write("social.txt", func(f *os.File) error { return dataset.WriteSocial(f, net.Social) }),
		Attrs:  write("attrs.txt", func(f *os.File) error { return dataset.WriteAttrs(f, net.Social) }),
		Road:   write("road.txt", func(f *os.File) error { return dataset.WriteRoad(f, net.Road) }),
		Locs:   write("locs.txt", func(f *os.File) error { return dataset.WriteLocations(f, net.Locs) }),
	}
}

// TestDatasetLifecycleHTTP: a dataset is registered from an on-disk spec
// via POST /v1/datasets/{name}, served via the dataset-scoped search route,
// and unregistered via DELETE — all over HTTP, no restart. Creating a
// duplicate answers 409, deleting a stranger 404.
func TestDatasetLifecycleHTTP(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx := context.Background()
	sdk := client.New(ts.URL)
	spec := writeDatasetFiles(t, net)

	info, err := sdk.CreateDataset(ctx, "fresh", spec)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if info.Dataset != "fresh" || info.Users != net.Social.N() || info.RoadVertices != net.Road.N() {
		t.Fatalf("create info = %+v", info)
	}

	resp, err := sdk.Search(ctx, "fresh", &SearchRequest{
		Q: q, K: k, T: tt,
		Region: &RegionSpec{Lo: []float64{0.2, 0.2}, Hi: []float64{0.25, 0.25}},
	})
	if err != nil {
		t.Fatalf("search on created dataset: %v", err)
	}
	if resp.Dataset != "fresh" || resp.KTCoreSize == 0 {
		t.Fatalf("search response = %+v", resp)
	}

	if _, err := sdk.CreateDataset(ctx, "fresh", spec); client.StatusOf(err) != http.StatusConflict {
		t.Fatalf("duplicate create: err=%v, want 409", err)
	}
	if err := sdk.DeleteDataset(ctx, "fresh"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := sdk.Search(ctx, "fresh", &SearchRequest{
		Q: q, K: k, T: tt,
		Region: &RegionSpec{Lo: []float64{0.2, 0.2}, Hi: []float64{0.25, 0.25}},
	}); client.StatusOf(err) != http.StatusNotFound {
		t.Fatalf("search after delete: err=%v, want 404", err)
	}
	if err := sdk.DeleteDataset(ctx, "fresh"); client.StatusOf(err) != http.StatusNotFound {
		t.Fatalf("double delete: err=%v, want 404", err)
	}

	// A synthetic spec needs a catalog-aware loader; the default answers 400.
	if _, err := sdk.CreateDataset(ctx, "syn", &DatasetSpec{Synthetic: "SF+Slashdot"}); client.StatusOf(err) != http.StatusBadRequest {
		t.Fatalf("synthetic spec on default loader: err=%v, want 400", err)
	}
}

// TestLifecycleWhileServing: creating and deleting one dataset never
// disturbs in-flight traffic on another — searches launched before,
// during, and after the lifecycle all succeed, and searches in flight on
// the deleted dataset itself finish on the memory they hold (run with
// -race).
func TestLifecycleWhileServing(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	s := New(Config{MaxInFlight: 4, MaxQueue: 64, DefaultTimeout: 120 * time.Second, MaxTimeout: 180 * time.Second})
	if err := s.AddDataset("steady", net); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx := context.Background()
	sdk := client.New(ts.URL)
	spec := writeDatasetFiles(t, net)
	region := &RegionSpec{Lo: []float64{0.2, 0.2}, Hi: []float64{0.25, 0.25}}

	var failures atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Stop the steady load before the server goes away, whichever way the
	// test exits (this defer runs before ts.Close's).
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// A few distinct t values: a mix of fresh Prepares and
				// cache hits stays in flight throughout the churn.
				_, err := sdk.Search(ctx, "steady", &SearchRequest{
					Q: q, K: k, T: tt + float64(w*10+i%3), Region: region,
				})
				if err != nil {
					failures.Add(1)
					t.Errorf("steady search failed mid-lifecycle: %v", err)
					return
				}
			}
		}(w)
	}

	for round := 0; round < 2; round++ {
		if _, err := sdk.CreateDataset(ctx, "churn", spec); err != nil {
			t.Fatalf("round %d create: %v", round, err)
		}
		if _, err := sdk.Search(ctx, "churn", &SearchRequest{Q: q, K: k, T: tt, Region: region}); err != nil {
			t.Fatalf("round %d search on churn: %v", round, err)
		}
		// Launch a search on churn and delete the dataset while it may
		// still be running: it must finish 200 or 404, never crash.
		raceDone := make(chan error, 1)
		go func() {
			_, err := sdk.Search(ctx, "churn", &SearchRequest{
				Q: q, K: k, T: tt + float64(20+round), Region: region,
			})
			raceDone <- err
		}()
		if err := sdk.DeleteDataset(ctx, "churn"); err != nil {
			t.Fatalf("round %d delete: %v", round, err)
		}
		if err := <-raceDone; err != nil && client.StatusOf(err) != http.StatusNotFound {
			t.Fatalf("round %d racing search: %v", round, err)
		}
	}
	if failures.Load() != 0 {
		t.Fatalf("%d steady searches failed during dataset churn", failures.Load())
	}
	// The churn dataset's prepared states left with it.
	for _, ds := range s.Datasets() {
		if ds == "churn" {
			t.Fatal("churn still registered after delete")
		}
	}
}

// TestRecreateDoesNotServeStaleCache: prepared states are keyed by the
// dataset's registration generation, so after delete + re-create under the
// same name the first search must be a cache miss — never a hit on an
// entry built from the predecessor's data (which a racing in-flight
// request may have inserted after the delete's purge).
func TestRecreateDoesNotServeStaleCache(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	s := New(Config{})
	if err := s.AddDataset("x", net); err != nil {
		t.Fatal(err)
	}
	req := &SearchRequest{Dataset: "x", Q: q, K: k, T: tt,
		Region: &RegionSpec{Lo: []float64{0.2, 0.2}, Hi: []float64{0.25, 0.25}}}
	if resp, _, err := s.Do(req, nil); err != nil || resp.Cache != CacheMiss {
		t.Fatalf("first search: resp=%+v err=%v, want miss", resp, err)
	}
	if resp, _, err := s.Do(req, nil); err != nil || resp.Cache != CacheHit {
		t.Fatalf("repeat search: resp=%+v err=%v, want hit", resp, err)
	}
	if err := s.RemoveDataset("x"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDataset("x", net); err != nil {
		t.Fatal(err)
	}
	// Same name, same (Q,k,t) — but a new registration generation: the
	// predecessor's prepared state must not answer.
	if resp, _, err := s.Do(req, nil); err != nil || resp.Cache != CacheMiss {
		t.Fatalf("search after re-create: resp=%+v err=%v, want miss", resp, err)
	}
}

// TestBatchPartialFailure: a batch mixing valid searches, a ktcore op, an
// unknown dataset, and an invalid request answers 200 with per-item
// statuses — one bad item never fails the batch.
func TestBatchPartialFailure(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	s := New(Config{})
	if err := s.AddDataset("test", net); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	region := &RegionSpec{Lo: []float64{0.2, 0.2}, Hi: []float64{0.25, 0.25}}
	req := &BatchRequest{Items: []BatchItem{
		{SearchRequest: SearchRequest{Dataset: "test", Q: q, K: k, T: tt, Region: region}},
		{Op: client.OpKTCore, SearchRequest: SearchRequest{Dataset: "test", Q: q, K: k, T: tt}},
		{SearchRequest: SearchRequest{Dataset: "ghost", Q: q, K: k, T: tt, Region: region}},
		{SearchRequest: SearchRequest{Dataset: "test", Q: q, K: 0, T: tt, Region: region}},
		{Op: "explode", SearchRequest: SearchRequest{Dataset: "test", Q: q, K: k, T: tt, Region: region}},
	}}
	resp, err := client.New(ts.URL).Batch(context.Background(), req)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	want := []int{200, 200, 404, 400, 400}
	if len(resp.Items) != len(want) {
		t.Fatalf("batch items = %d, want %d", len(resp.Items), len(want))
	}
	for i, st := range want {
		if resp.Items[i].Status != st {
			t.Fatalf("item %d: status %d (%s), want %d", i, resp.Items[i].Status, resp.Items[i].Error, st)
		}
	}
	if resp.OK != 2 || resp.Failed != 3 {
		t.Fatalf("batch tallies = %d ok / %d failed, want 2/3", resp.OK, resp.Failed)
	}
	if resp.Items[0].Response == nil || resp.Items[0].Response.KTCoreSize == 0 {
		t.Fatalf("search item response = %+v", resp.Items[0].Response)
	}
	if resp.Items[1].Response == nil || len(resp.Items[1].Response.KTCore) == 0 {
		t.Fatalf("ktcore item response = %+v", resp.Items[1].Response)
	}
	// Counter invariant: every item is a request, and each settled as
	// completed or failed — requests == completed + failed even for
	// batches (the batch claimed a single admission slot regardless).
	if st := s.Stats(); st.Requests != 5 || st.Completed != 2 || st.Failed != 3 {
		t.Fatalf("batch counters = %d requests / %d completed / %d failed, want 5/2/3",
			st.Requests, st.Completed, st.Failed)
	}

	// Batch-level failures are the only non-200 answers: empty and oversize.
	c := client.New(ts.URL)
	if _, err := c.Batch(context.Background(), &BatchRequest{}); client.StatusOf(err) != http.StatusBadRequest {
		t.Fatalf("empty batch: err=%v, want 400", err)
	}
	big := &BatchRequest{Items: make([]BatchItem, MaxBatchItems+1)}
	if _, err := c.Batch(context.Background(), big); client.StatusOf(err) != http.StatusBadRequest {
		t.Fatalf("oversize batch: err=%v, want 400", err)
	}
}

// TestAuthToken: with Config.AuthToken set, every /v1 route demands the
// bearer token; the SDK's WithToken satisfies it.
func TestAuthToken(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	s := New(Config{AuthToken: "sesame"})
	if err := s.AddDataset("test", net); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx := context.Background()
	req := &SearchRequest{Q: q, K: k, T: tt,
		Region: &RegionSpec{Lo: []float64{0.2, 0.2}, Hi: []float64{0.25, 0.25}}}

	if _, err := client.New(ts.URL).Search(ctx, "test", req); client.StatusOf(err) != http.StatusUnauthorized {
		t.Fatalf("no token: err=%v, want 401", err)
	}
	if _, err := client.New(ts.URL, client.WithToken("wrong")).Search(ctx, "test", req); client.StatusOf(err) != http.StatusUnauthorized {
		t.Fatalf("wrong token: err=%v, want 401", err)
	}
	if _, err := client.New(ts.URL, client.WithToken("sesame")).Stats(ctx); err != nil {
		t.Fatalf("stats with token: %v", err)
	}
	resp, err := client.New(ts.URL, client.WithToken("sesame")).Search(ctx, "test", req)
	if err != nil || resp.KTCoreSize == 0 {
		t.Fatalf("search with token: resp=%+v err=%v", resp, err)
	}
}

// TestLatencyHistogram: recorded latencies land in the fixed log-scale
// buckets and the reported quantiles are within one bucket width of the
// true values; merged histograms yield the same quantiles as one histogram
// over the union.
func TestLatencyHistogram(t *testing.T) {
	var a, b latencyHist
	// 100 fast requests on one server, 100 slow on the other.
	for i := 0; i < 100; i++ {
		a.record(1.0)   // ~1ms
		b.record(100.0) // ~100ms
	}
	sa, sb := a.stats(), b.stats()
	if sa.Count != 100 || sb.Count != 100 {
		t.Fatalf("counts = %d, %d", sa.Count, sb.Count)
	}
	within := func(got, want float64) bool {
		factor := got / want
		return factor > 0.8 && factor < 1.3 // one bucket = 2^(1/4) ≈ 1.19
	}
	if !within(sa.P50Ms, 1.0) || !within(sb.P50Ms, 100.0) {
		t.Fatalf("per-server p50 = %g, %g", sa.P50Ms, sb.P50Ms)
	}
	// Merge: p50 of the union (half 1ms, half 100ms) is the 1ms mode —
	// the worst-of aggregation this replaced would have claimed 100ms.
	merged := sa
	merged.Buckets = append([]int64(nil), sa.Buckets...)
	merged.Merge(sb)
	if merged.Count != 200 {
		t.Fatalf("merged count = %d", merged.Count)
	}
	if !within(merged.P50Ms, 1.0) {
		t.Fatalf("merged p50 = %g, want ~1 (true union quantile, not worst-of)", merged.P50Ms)
	}
	if !within(merged.P99Ms, 100.0) {
		t.Fatalf("merged p99 = %g, want ~100", merged.P99Ms)
	}
	if !within(merged.MeanMs, 50.5) {
		t.Fatalf("merged mean = %g, want ~50.5", merged.MeanMs)
	}
}
