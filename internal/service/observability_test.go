package service

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"roadsocial/client"
	"roadsocial/internal/promtest"
	"roadsocial/internal/road"
)

// syncBuffer is a goroutine-safe log sink for capturing slog output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func keyCount(t *testing.T, st Stats, dataset, variant, route, outcome string) int64 {
	t.Helper()
	ks, ok := st.DatasetStats[client.StatsKey(dataset, variant, route, outcome)]
	if !ok {
		t.Fatalf("no keyed series %s (have %v)", client.StatsKey(dataset, variant, route, outcome), keysOf(st.DatasetStats))
	}
	return ks.Latency.Count
}

func keysOf(m map[string]client.KeyStats) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestKeyedStatsRecordedForAllOutcomes: every terminal answer — success,
// validation failure, unknown dataset, admission rejection — lands in the
// keyed registry under its outcome label, while the legacy global latency
// histogram still counts completed searches only.
func TestKeyedStatsRecordedForAllOutcomes(t *testing.T) {
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

	// Saturate: request A parks inside the oracle holding the only
	// in-flight slot, request B fills the queue, request C gets 429.
	// Distinct (k,t) per request so they do not coalesce in the cache.
	done := make(chan int, 2)
	go func() {
		status, _ := postJSON(t, ts.URL+"/v1/datasets/test/search", searchBody(t, "test", q, k, tt, nil))
		done <- status
	}()
	<-gate.started
	go func() {
		status, _ := postJSON(t, ts.URL+"/v1/datasets/test/search", searchBody(t, "test", q, k, tt+1, nil))
		done <- status
	}()
	for s.Stats().Queued == 0 { // request B sits in the queue
		runtime.Gosched()
	}
	if status, body := postJSON(t, ts.URL+"/v1/datasets/test/search", searchBody(t, "test", q, k, tt+2, nil)); status != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status %d (%v), want 429", status, body)
	}
	close(gate.gate)
	for i := 0; i < 2; i++ {
		if status := <-done; status != http.StatusOK {
			t.Fatalf("admitted request: status %d, want 200", status)
		}
	}

	// Validation failure on a known dataset keeps the dataset label.
	if status, _ := postJSON(t, ts.URL+"/v1/datasets/test/search", searchBody(t, "test", q, 0, tt, nil)); status != http.StatusBadRequest {
		t.Fatalf("k=0 search: status %d, want 400", status)
	}
	// Unknown dataset folds into the bounded _unknown label.
	if status, _ := postJSON(t, ts.URL+"/v1/datasets/nope/search", searchBody(t, "nope", q, k, tt, nil)); status != http.StatusNotFound {
		t.Fatalf("unknown dataset: status %d, want 404", status)
	}

	st := s.Stats()
	if n := keyCount(t, st, "test", "core", "search", OutcomeOK); n != 2 {
		t.Fatalf("ok series count = %d, want 2", n)
	}
	if n := keyCount(t, st, "test", "core", "search", client.CodeSaturated); n != 1 {
		t.Fatalf("saturated series count = %d, want 1", n)
	}
	if n := keyCount(t, st, "test", "core", "search", client.CodeInvalid); n != 1 {
		t.Fatalf("invalid series count = %d, want 1", n)
	}
	if n := keyCount(t, st, UnknownDataset, "core", "search", client.CodeNotFound); n != 1 {
		t.Fatalf("not_found series count = %d, want 1", n)
	}
	// The legacy global histogram is completed-searches-only: exactly the
	// two 200s, none of the three failures.
	if st.Latency.Count != 2 {
		t.Fatalf("global latency count = %d, want 2 (completed only)", st.Latency.Count)
	}
	// Stage histograms exist for the completed request.
	for _, stage := range []string{StageQueue, StagePrepare, StageSearch, StageEncode} {
		if st.Stages[stage].Count == 0 {
			t.Fatalf("stage %q has no recordings (stages: %v)", stage, st.Stages)
		}
	}
}

// TestMetricsEndpointParses: the hand-rolled /metrics output survives a
// strict line-format parse — headers ordered, groups contiguous, histogram
// buckets cumulative with +Inf == _count — and carries the keyed series.
func TestMetricsEndpointParses(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	s := New(Config{})
	if err := s.AddDataset("test", net); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		if status, body := postJSON(t, ts.URL+"/v1/datasets/test/search", searchBody(t, "test", q, k, tt, nil)); status != http.StatusOK {
			t.Fatalf("search %d: status %d (%v)", i, status, body)
		}
	}
	if status, _ := postJSON(t, ts.URL+"/v1/datasets/nope/search", searchBody(t, "nope", q, k, tt, nil)); status != http.StatusNotFound {
		t.Fatal("expected 404 for unknown dataset")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != PromContentType {
		t.Fatalf("content type %q, want %q", ct, PromContentType)
	}
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := promtest.Parse(string(text))
	if err != nil {
		t.Fatalf("strict parse of /metrics failed: %v\n%s", err, text)
	}

	if v, err := promtest.Value(fams, "macserver_requests_total", nil); err != nil || v < 4 {
		t.Fatalf("macserver_requests_total = %v (%v), want >= 4", v, err)
	}
	okCount, err := promtest.HistCount(fams, "macserver_dataset_request_duration_ms", map[string]string{
		"dataset": "test", "variant": "core", "route": "search", "outcome": OutcomeOK,
	})
	if err != nil || okCount != 3 {
		t.Fatalf("keyed ok histogram count = %v (%v), want 3", okCount, err)
	}
	if _, err := promtest.HistCount(fams, "macserver_dataset_request_duration_ms", map[string]string{
		"dataset": UnknownDataset, "outcome": client.CodeNotFound,
	}); err != nil {
		t.Fatalf("keyed not_found histogram: %v", err)
	}
	for _, stage := range []string{StageQueue, StagePrepare, StageSearch, StageEncode} {
		if _, err := promtest.HistCount(fams, "macserver_stage_duration_ms", map[string]string{"stage": stage}); err != nil {
			t.Fatalf("stage histogram %q: %v", stage, err)
		}
	}
	if f := fams["macserver_request_duration_ms"]; f == nil || f.Type != "histogram" {
		t.Fatal("global request duration histogram missing")
	}
}

// TestServerTimingAndRequestID: a successful search answers with the
// Server-Timing stage breakdown; request IDs echo when supplied and mint
// when absent.
func TestServerTimingAndRequestID(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	s := New(Config{})
	if err := s.AddDataset("test", net); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/datasets/test/search", bytes.NewReader(searchBody(t, "test", q, k, tt, nil)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(client.HeaderRequestID, "req-abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(client.HeaderRequestID); got != "req-abc-123" {
		t.Fatalf("request ID echo: got %q, want req-abc-123", got)
	}
	timing := resp.Header.Get(client.HeaderServerTiming)
	for _, stage := range []string{StageQueue, StagePrepare, StageSearch, StageEncode} {
		if !strings.Contains(timing, stage+";dur=") {
			t.Fatalf("Server-Timing %q missing stage %q", timing, stage)
		}
	}

	// No client ID: the edge mints a 16-hex-digit one.
	resp2, err := http.Post(ts.URL+"/v1/datasets/test/search", "application/json", bytes.NewReader(searchBody(t, "test", q, k, tt, nil)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if id := resp2.Header.Get(client.HeaderRequestID); len(id) != 16 {
		t.Fatalf("minted request ID %q, want 16 hex chars", id)
	}
}

// TestAccessLogAndSlowQuery: with a Logger configured, each request emits
// one structured access record carrying its request ID, and searches over
// the -slow-query threshold emit the full reproduction key.
func TestAccessLogAndSlowQuery(t *testing.T) {
	net, q, k, tt := testNetwork(t)
	sink := &syncBuffer{}
	logger := slog.New(slog.NewTextHandler(sink, &slog.HandlerOptions{Level: slog.LevelDebug}))
	s := New(Config{Logger: logger, SlowQuery: time.Nanosecond})
	if err := s.AddDataset("test", net); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/datasets/test/search", bytes.NewReader(searchBody(t, "test", q, k, tt, nil)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(client.HeaderRequestID, "trace-me-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: status %d", resp.StatusCode)
	}

	logs := sink.String()
	if !strings.Contains(logs, "msg=request") {
		t.Fatalf("no access record in logs:\n%s", logs)
	}
	if !strings.Contains(logs, "request_id=trace-me-42") {
		t.Fatalf("access record missing request ID:\n%s", logs)
	}
	if !strings.Contains(logs, "route=search") || !strings.Contains(logs, "status=200") || !strings.Contains(logs, "outcome=ok") {
		t.Fatalf("access record missing route/status/outcome:\n%s", logs)
	}
	// The slow-query record carries the full (Q, k, t) reproduction key.
	if !strings.Contains(logs, "slow query") {
		t.Fatalf("no slow-query record (threshold 1ns):\n%s", logs)
	}
	if !strings.Contains(logs, "k="+strconv.Itoa(k)) || !strings.Contains(logs, "dataset=test") || !strings.Contains(logs, "q=") || !strings.Contains(logs, "t=") {
		t.Fatalf("slow-query record missing key fields:\n%s", logs)
	}
}
