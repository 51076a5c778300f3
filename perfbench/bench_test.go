package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
)

// tinyConfig runs a workload for one second (and the round in progress),
// with exact counts over its first 8 ops.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload:  workload,
		seed:      7,
		seconds:   1,
		trace:     trace,
		state:     t.TempDir(),
		setupReps: 2,
		prefix:    8,
	}
}

func runOK(t *testing.T, cfg config) (*result, map[string]any) {
	t.Helper()
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	var buf bytes.Buffer
	if err := res.print(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, buf.String())
	}
	for _, m := range res.metrics {
		if !strings.Contains(buf.String(), "metric "+cfg.workload+" "+m.name+" = ") {
			t.Errorf("metric %s not printed by name", m.name)
		}
	}
	return res, out
}

// benchmarkJSON is the repository's benchmark definition.
type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestMetricsMatchBenchmark: BENCHMARK.json declares exactly the metrics the
// command prints, with the same units and directions.
func TestMetricsMatchBenchmark(t *testing.T) {
	bj := loadBenchmark(t)
	seen := map[string]bool{}
	check := func(name, unit, better string, layer bool) {
		def, ok := metricDefs[name]
		switch {
		case !ok:
			t.Errorf("BENCHMARK.json names %s, which the command does not print", name)
		case def.unit != unit || def.better != better || def.layer != layer:
			t.Errorf("%s: BENCHMARK.json has %s/%s/layer=%v, the command %s/%s/layer=%v",
				name, unit, better, layer, def.unit, def.better, def.layer)
		}
		seen[name] = true
	}
	for _, m := range bj.EndToEnd {
		check(m.Name, m.Unit, m.Better, false)
	}
	for _, m := range bj.PerLayer {
		check(m.Name, m.Unit, m.Better, true)
	}
	for name := range metricDefs {
		if !seen[name] {
			t.Errorf("the command prints %s, which BENCHMARK.json does not declare", name)
		}
	}
}

// TestEveryMetricPrinted: an untraced run prints every end-to-end metric in
// its JSON line and a traced run every per-layer metric, on every workload,
// with a correct answer count.
func TestEveryMetricPrinted(t *testing.T) {
	bj := loadBenchmark(t)
	for _, w := range []string{"explore", "live"} {
		for _, trace := range []bool{false, true} {
			res, out := runOK(t, tinyConfig(t, w, trace))
			if res.failed != 0 || out["correct"] != true {
				t.Errorf("%s trace=%v: %d failures %v", w, trace, res.failed, res.reasons)
			}
			metrics := out["metrics"].(map[string]any)
			want := bj.EndToEnd
			if trace {
				want = bj.PerLayer
			}
			if len(metrics) != len(want) {
				t.Errorf("%s trace=%v: JSON carries %d metrics, want %d", w, trace, len(metrics), len(want))
			}
			for _, m := range want {
				got, ok := metrics[m.Name].(map[string]any)
				if !ok || got["unit"] != m.Unit {
					t.Errorf("%s trace=%v: metric %s missing or without unit %s: %v", w, trace, m.Name, m.Unit, got)
				}
			}
		}
	}
}

// TestCorruptedAnswerCounted: an answer altered on the wire is counted as a
// failure with its reason.
func TestCorruptedAnswerCounted(t *testing.T) {
	for w, route := range map[string]string{"explore": "/search", "live": "/ktcore"} {
		var reads atomic.Int64
		cfg := tinyConfig(t, w, false)
		cfg.setupReps = 1
		cfg.wrap = func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				// The fifth answer of the workload's route is past the
				// warm-up requests; corrupt it.
				if !strings.HasSuffix(r.URL.Path, route) || reads.Add(1) != 5 {
					h.ServeHTTP(rw, r)
					return
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, r)
				var body map[string]any
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
					t.Errorf("decode answer: %v", err)
				}
				corrupt(body)
				for k, v := range rec.Header() {
					rw.Header()[k] = v
				}
				rw.Header().Del("Content-Length")
				rw.WriteHeader(rec.Code)
				_ = json.NewEncoder(rw).Encode(body)
			})
		}
		res, out := runOK(t, cfg)
		if res.reasons["wrong answer"] < 1 || out["correct"] != false {
			t.Errorf("%s: corrupted answer not counted: failed %d, reasons %v", w, res.failed, res.reasons)
		}
	}
}

// corrupt drops one member from a ktcore answer, or from the first ranked
// community of a search answer.
func corrupt(body map[string]any) {
	if m, ok := body["ktcore"].([]any); ok && len(m) > 0 {
		body["ktcore"] = m[:len(m)-1]
		return
	}
	cells, _ := body["cells"].([]any)
	for _, c := range cells {
		ranked := c.(map[string]any)["ranked"].([]any)
		if len(ranked) > 0 {
			first := ranked[0].([]any)
			ranked[0] = first[:len(first)-1]
			return
		}
	}
}

// TestSpansNest: every traced span lies inside its parent, in the SDK
// spans and in the library replay, for reads and writes.
func TestSpansNest(t *testing.T) {
	for _, w := range []string{"explore", "live"} {
		res, _ := runOK(t, tinyConfig(t, w, true))
		if len(res.tracers) != 2 {
			t.Fatalf("%s: %d span sets, want the SDK spans and the replay", w, len(res.tracers))
		}
		for i, tr := range res.tracers {
			if len(tr.spans) == 0 {
				t.Errorf("%s: span set %d is empty", w, i)
			}
			if err := tr.nested(); err != nil {
				t.Errorf("%s: span set %d: %v", w, i, err)
			}
		}
	}
}

// TestSelfTime: a span's self time excludes its children.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "sdk.read", Op: 0, Parent: -1, Start: 0, End: 10e6},
		{Name: "service.search", Op: 0, Parent: 0, Start: 1e6, End: 7e6},
	}
	if got := tr.selfTimes("sdk.read"); len(got) != 1 || got[0] != 4 {
		t.Fatalf("self time %v, want [4]", got)
	}
	tr.spans = append(tr.spans, span{Name: "service.encode", Op: 0, Parent: 0, Start: 8e6, End: 11e6})
	if err := tr.nested(); err == nil {
		t.Fatal("a child ending after its parent was not reported")
	}
}

// TestDeterministicCounts: two runs of one seed report the same exact
// counts, and the second run compares them with the first's record.
func TestDeterministicCounts(t *testing.T) {
	cfg := tinyConfig(t, "explore", false)
	for i := 0; i < 2; i++ {
		res, _ := runOK(t, cfg)
		if res.reasons["nondeterministic count"] != 0 {
			t.Fatalf("run %d: exact counts differ: %v", i, res.notes)
		}
	}
}

// TestReplayPartsDoNotOverlap: the replay's layer attribution counts a call
// that contains parts timed beside it by its self time, so the parts sum to
// the enclosing calls' time.
func TestReplayPartsDoNotOverlap(t *testing.T) {
	m := map[string]float64{
		"mac.prepare": 10, "road.range": 6, "social.core_peel": 1,
		"mac.search": 5, "domgraph.build": 2,
		"mutate.apply": 8, "social.core_maint": 1, "social.truss_maint": 5,
		"mutate.journal": 0.5, "standing.eval": 4,
	}
	var sum float64
	for _, v := range selfParts(m) {
		sum += v
	}
	if want := 10 + 5 + 8 + 0.5 + 4; sum != want {
		t.Fatalf("parts sum to %v, want %v: %v", sum, want, selfParts(m))
	}
}
