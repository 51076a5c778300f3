package main

import (
	"fmt"
	"strings"
	"testing"

	"roadsocial/internal/exp"
)

func serviceRecord(scale string, metrics map[string]float64) record {
	return record{Experiment: "service_latency", Scale: scale, QueriesPer: 2, Metrics: metrics}
}

func recordSet(rs ...record) map[string]record {
	out := map[string]record{}
	for _, r := range rs {
		out[r.key()] = r
	}
	return out
}

// TestCheckGatesScalesAndMissingRecords: a row gates only the records at
// its scales and says why it skips the rest; a row that evaluates no record
// fails; a violated row fails; records of other experiments are ignored.
func TestCheckGatesScalesAndMissingRecords(t *testing.T) {
	smallOnly := exp.Gate{X: "a", Less: true, Y: "b", A: 1, Scales: []string{"small"}, Skip: "too small to tell"}
	everywhere := exp.Gate{X: "c", B: 1, Scales: []string{"tiny", "small"}}
	tiny := serviceRecord("tiny", map[string]float64{"c": 2})
	other := record{Experiment: "vary_k", Scale: "small"}

	var out strings.Builder
	if checkGates(&out, recordSet(tiny, other), []exp.Gate{smallOnly, everywhere}) {
		t.Fatalf("a small-only row with only a tiny record passed:\n%s", out.String())
	}
	got := out.String()
	for _, want := range []string{
		"skip tiny   a < b", "too small to tell",
		"FAIL -      a < b", "no service_latency record at small",
		"ok   tiny   c > 1",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "FAIL tiny") {
		t.Errorf("a tiny record failed a row that skips tiny:\n%s", got)
	}

	small := serviceRecord("small", map[string]float64{"a": 1, "b": 2, "c": 2})
	out.Reset()
	if !checkGates(&out, recordSet(tiny, small, other), []exp.Gate{smallOnly, everywhere}) {
		t.Fatalf("satisfied rows failed:\n%s", out.String())
	}
	small.Metrics = map[string]float64{"a": 3, "b": 2, "c": 2}
	out.Reset()
	if checkGates(&out, recordSet(tiny, small), []exp.Gate{smallOnly, everywhere}) ||
		!strings.Contains(out.String(), "FAIL small  a < b") {
		t.Fatalf("violated row passed:\n%s", out.String())
	}
}

// TestServiceGatesNeedBothScales: the committed table needs a tiny and a
// small service_latency record. Either alone leaves some row without a
// record, and empty records fail every row they reach.
func TestServiceGatesNeedBothScales(t *testing.T) {
	tiny, small := serviceRecord("tiny", nil), serviceRecord("small", nil)
	for _, recs := range []map[string]record{recordSet(tiny), recordSet(small)} {
		var out strings.Builder
		if checkGates(&out, recs, exp.ServiceGates) || !strings.Contains(out.String(), "no service_latency record") {
			t.Errorf("one scale alone passed or named no missing record:\n%s", out.String())
		}
	}
	var out strings.Builder
	checkGates(&out, recordSet(tiny, small), exp.ServiceGates)
	for _, g := range exp.ServiceGates {
		for _, scale := range []string{"tiny", "small"} {
			if g.GatesAt(scale) && !strings.Contains(out.String(), fmt.Sprintf("FAIL %-6s %s", scale, g)) {
				t.Errorf("%s: an empty %s record did not fail", g, scale)
			}
		}
	}
}
