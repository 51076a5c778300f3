package exp

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func tinyTestOpts() Options {
	return Options{
		Scale:         Tiny,
		QueriesPer:    1,
		Seed:          42,
		Timeout:       20 * time.Second,
		WeightSamples: 3,
	}
}

func TestDatasetRegistry(t *testing.T) {
	if len(Datasets) != 5 {
		t.Fatalf("%d datasets, want the paper's 5 pairs", len(Datasets))
	}
	if _, err := DatasetByName("FL+Yelp"); err != nil {
		t.Fatal(err)
	}
	if _, err := DatasetByName("nope"); err == nil {
		t.Fatal("unknown dataset must error")
	}
	for _, spec := range Datasets {
		in, err := spec.Build(Tiny, 3, 1)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if err := in.Net.Validate(); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if got := len(in.TSweep()); got != 5 {
			t.Fatalf("%s: %d t values", spec.Name, got)
		}
		r := in.Region(0.01)
		if r.Dim() != 2 {
			t.Fatalf("%s: region dim %d", spec.Name, r.Dim())
		}
	}
}

func TestTable2(t *testing.T) {
	tab, err := Table2(tinyTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	var sb strings.Builder
	tab.Print(&sb)
	if !strings.Contains(sb.String(), "SF+Slashdot") {
		t.Fatal("table missing dataset names")
	}
}

func TestVaryKSmoke(t *testing.T) {
	opts := tinyTestOpts()
	opts.Datasets = []string{"SF+Slashdot"}
	tab, err := VaryK(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(KSweepValues) {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// At least the low-k rows must have measurements.
	found := false
	for _, row := range tab.Rows {
		for _, cell := range row[2:] {
			if cell != "-" && cell != "Inf" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no measurement succeeded: %v", tab.Rows)
	}
}

func TestKTCoreSizesSmoke(t *testing.T) {
	opts := tinyTestOpts()
	opts.Datasets = []string{"SF+Delicious"}
	tab, err := KTCoreSizes(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(KSweepValues) {
		t.Fatalf("%d rows", len(tab.Rows))
	}
}

func TestCompareMethodsSmoke(t *testing.T) {
	opts := tinyTestOpts()
	opts.Datasets = []string{"SF+Delicious"}
	tab, err := CompareMethods(opts, "k")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// Header carries all six methods.
	if len(tab.Header) != 8 {
		t.Fatalf("header %v", tab.Header)
	}
}

func TestPartitionsSmoke(t *testing.T) {
	opts := tinyTestOpts()
	opts.Datasets = []string{"SF+Delicious"}
	tab, err := PartitionsAndNCMACs(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(SigmaValues) {
		t.Fatalf("%d rows", len(tab.Rows))
	}
}

// TestServiceLatencyRecordsGateMetrics runs the service_latency experiment
// at tiny scale, as CI does, and checks that it records every metric the
// invariant table names — a renamed metric fails here, not only in CI —
// and that every phase row counts each request it sent exactly once.
func TestServiceLatencyRecordsGateMetrics(t *testing.T) {
	tab, err := ServiceLatency(Options{Scale: Tiny})
	if err != nil {
		t.Fatal(err)
	}
	m := tab.Metrics
	for _, g := range ServiceGates {
		for _, name := range g.metrics() {
			if _, ok := m[name]; !ok {
				t.Errorf("%s: metric %s not recorded", g, name)
			}
		}
	}
	for _, row := range tab.Rows {
		var requests, ok, rejected, failed int
		if _, err := fmt.Sscan(strings.Join(row[2:6], " "), &requests, &ok, &rejected, &failed); err != nil {
			t.Fatalf("row %v: %v", row, err)
		}
		if requests != ok+rejected+failed || float64(requests) != m[row[0]+"_requests"] {
			t.Errorf("row %v: requests %d, outcomes %d+%d+%d, metric %g", row, requests, ok, rejected, failed, m[row[0]+"_requests"])
		}
	}
	for name, want := range map[string]float64{
		"warm":                serviceWarmPasses * m["cold_requests"],
		"truss_warm":          serviceWarmPasses * m["truss_cold_requests"],
		"load":                serviceLoadWorkers * serviceLoadPerWork,
		"openloop":            serviceOpenLoopReqs,
		"batch_single":        serviceBatchRounds * serviceBatchItems,
		"batch_item":          serviceBatchRounds,
		"batch_parallel_item": serviceBatchRounds,
		"mixed":               serviceMixedReqs,
		"standing_notify":     serviceStandingRounds * (serviceStandingReads + 1),
		"standing_burst":      serviceStandingBurstWriters * serviceStandingBurstPerW,
		"mutate_incremental":  mutMaintRounds,
		"register_build":      3,
		"saturate":            serviceSaturateReqs,
	} {
		if got := m[name+"_requests"]; got != want || want == 0 {
			t.Errorf("%s sent %g requests, want %g", name, got, want)
		}
	}
}

// TestPercentileNearestRank: percentileMs returns the ⌈q·n⌉-th smallest
// sample, so a p99 over 100 or fewer samples is their maximum.
func TestPercentileNearestRank(t *testing.T) {
	six := []float64{5, 1, 6, 3, 2, 4}
	if got := percentileMs(six, 0.50); got != 3 {
		t.Errorf("p50 of 1..6 = %g, want 3", got)
	}
	if got := percentileMs(six, 0.99); got != 6 {
		t.Errorf("p99 of 1..6 = %g, want 6", got)
	}
	many := make([]float64, 200)
	for i := range many {
		many[i] = float64(200 - i) // 200..1, unsorted
	}
	if got := percentileMs(many, 0.99); got != 198 {
		t.Errorf("p99 of 1..200 = %g, want 198", got)
	}
	if got := percentileMs(nil, 0.99); got != 0 {
		t.Errorf("p99 of no samples = %g, want 0", got)
	}
}
