package service

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"roadsocial/client"
)

// Prometheus text exposition (version 0.0.4), hand-rolled — the format is a
// few line shapes, not worth a dependency. Every metric is rendered from a
// client.Stats snapshot, so /metrics and /v1/stats can never disagree; a
// router renders one labeled set per shard (shard="...") plus its own
// routing counters, a leaf renders a single unlabeled set.

// PromContentType is the Content-Type of the exposition.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromLabel is one label pair of a rendered series.
type PromLabel struct {
	Name, Value string
}

// PromSet is one stats snapshot to render, tagged with the labels every
// series of the set carries (a router tags each shard's set with its name).
type PromSet struct {
	Labels []PromLabel
	Stats  client.Stats
}

// WriteProm renders the sets as one exposition. All lines of one metric
// name are grouped (the format demands it), with HELP/TYPE emitted once.
func WriteProm(w io.Writer, sets []PromSet) error {
	p := &promText{w: w}

	p.metric("macserver_uptime_seconds", "Seconds since the server started.", "gauge")
	for _, s := range sets {
		p.sample("macserver_uptime_seconds", s.Labels, nil, s.Stats.UptimeSeconds)
	}
	p.metric("macserver_datasets", "Number of registered datasets.", "gauge")
	for _, s := range sets {
		p.sample("macserver_datasets", s.Labels, nil, float64(len(s.Stats.Datasets)))
	}

	counters := []struct {
		name, help string
		value      func(st client.Stats) float64
	}{
		{"macserver_requests_total", "Requests received (batch items count individually).",
			func(st client.Stats) float64 { return float64(st.Requests) }},
		{"macserver_completed_total", "Requests answered successfully.",
			func(st client.Stats) float64 { return float64(st.Completed) }},
		{"macserver_failed_total", "Requests answered with an error.",
			func(st client.Stats) float64 { return float64(st.Failed) }},
		{"macserver_rejected_saturated_total", "Requests rejected by admission control (429).",
			func(st client.Stats) float64 { return float64(st.RejectedSaturated) }},
		{"macserver_deadline_exceeded_total", "Requests that exceeded their deadline (504).",
			func(st client.Stats) float64 { return float64(st.DeadlineExceeded) }},
		{"macserver_mutations_total", "Mutation ops applied (edge inserts/deletes, attribute updates, location moves).",
			func(st client.Stats) float64 { return float64(st.Mutations) }},
		{"macserver_cache_hits_total", "Prepared-cache hits.",
			func(st client.Stats) float64 { return float64(st.Cache.Hits) }},
		{"macserver_cache_misses_total", "Prepared-cache misses.",
			func(st client.Stats) float64 { return float64(st.Cache.Misses) }},
		{"macserver_cache_coalesced_total", "Prepared-cache builds coalesced onto another in flight.",
			func(st client.Stats) float64 { return float64(st.Cache.Coalesced) }},
		{"macserver_cache_evictions_total", "Prepared-cache evictions.",
			func(st client.Stats) float64 { return float64(st.Cache.Evictions) }},
		{"macserver_standing_events_total", "Standing-query delta events published.",
			func(st client.Stats) float64 { return float64(st.StandingEvents) }},
		{"macserver_standing_lagged_total", "Standing-query subscribers dropped for lagging.",
			func(st client.Stats) float64 { return float64(st.StandingLagged) }},
		{"macserver_standing_evals_total", "Standing-query re-evaluations run.",
			func(st client.Stats) float64 { return float64(st.StandingEvals) }},
		{"macserver_standing_notified_total", "Mutation batches that matched at least one standing query (notified/evals is the coalescing ratio).",
			func(st client.Stats) float64 { return float64(st.StandingNotified) }},
		{"macserver_failovers_total", "Reads served from a follower because the primary failed.",
			func(st client.Stats) float64 { return float64(st.Failovers) }},
		{"macserver_drain_timeouts_total", "Dataset moves whose source drain timed out.",
			func(st client.Stats) float64 { return float64(st.DrainTimeouts) }},
		{"macserver_replica_syncs_total", "Replicate jobs submitted to sync followers.",
			func(st client.Stats) float64 { return float64(st.ReplicaSyncs) }},
	}
	for _, c := range counters {
		p.metric(c.name, c.help, "counter")
		for _, s := range sets {
			p.sample(c.name, s.Labels, nil, c.value(s.Stats))
		}
	}

	p.metric("macserver_jobs_total", "Settled control-plane jobs by outcome.", "counter")
	for _, s := range sets {
		p.sample("macserver_jobs_total", s.Labels, []PromLabel{{"outcome", "done"}}, float64(s.Stats.JobsDone))
		p.sample("macserver_jobs_total", s.Labels, []PromLabel{{"outcome", "failed"}}, float64(s.Stats.JobsFailed))
	}

	gauges := []struct {
		name, help string
		value      func(st client.Stats) float64
	}{
		{"macserver_in_flight", "Requests executing right now.",
			func(st client.Stats) float64 { return float64(st.InFlight) }},
		{"macserver_queued", "Requests waiting for an in-flight slot.",
			func(st client.Stats) float64 { return float64(st.Queued) }},
		{"macserver_max_in_flight", "Admission bound on concurrent requests.",
			func(st client.Stats) float64 { return float64(st.MaxInFlight) }},
		{"macserver_max_queue", "Admission bound on queued requests.",
			func(st client.Stats) float64 { return float64(st.MaxQueue) }},
		{"macserver_cache_entries", "Prepared-cache resident entries.",
			func(st client.Stats) float64 { return float64(st.Cache.Entries) }},
		{"macserver_cache_cost_used", "Prepared-cache resident weight (members).",
			func(st client.Stats) float64 { return float64(st.Cache.CostUsed) }},
		{"macserver_standing_queries", "Registered standing queries.",
			func(st client.Stats) float64 { return float64(st.StandingQueries) }},
	}
	for _, g := range gauges {
		p.metric(g.name, g.help, "gauge")
		for _, s := range sets {
			p.sample(g.name, s.Labels, nil, g.value(s.Stats))
		}
	}

	p.metric("macserver_request_duration_ms",
		"Latency of completed requests (the global completed-only series).", "histogram")
	for _, s := range sets {
		p.histogram("macserver_request_duration_ms", s.Labels, nil, s.Stats.Latency)
	}

	p.metric("macserver_dataset_request_duration_ms",
		"Latency of every terminal answer per dataset, variant, route, and outcome.", "histogram")
	for _, s := range sets {
		for _, k := range sortedKeys(s.Stats.DatasetStats) {
			ks := s.Stats.DatasetStats[k]
			p.histogram("macserver_dataset_request_duration_ms", s.Labels, []PromLabel{
				{"dataset", ks.Dataset}, {"variant", ks.Variant},
				{"route", ks.Route}, {"outcome", ks.Outcome},
			}, ks.Latency)
		}
	}

	p.metric("macserver_stage_duration_ms",
		"Per-phase breakdown of completed requests (queue, prepare, search, encode).", "histogram")
	for _, s := range sets {
		for _, stage := range sortedKeys(s.Stats.Stages) {
			p.histogram("macserver_stage_duration_ms", s.Labels,
				[]PromLabel{{"stage", stage}}, s.Stats.Stages[stage])
		}
	}

	return p.err
}

// PromCounter renders one standalone counter (HELP/TYPE plus one sample per
// label set) — for metrics outside the Stats schema, like the router's
// per-shard liveness.
func PromCounter(w io.Writer, name, help string, samples []PromSample) error {
	return promStandalone(w, name, help, "counter", samples)
}

// PromGauge is PromCounter for gauges.
func PromGauge(w io.Writer, name, help string, samples []PromSample) error {
	return promStandalone(w, name, help, "gauge", samples)
}

// PromSample is one sample of a standalone metric.
type PromSample struct {
	Labels []PromLabel
	Value  float64
}

func promStandalone(w io.Writer, name, help, typ string, samples []PromSample) error {
	p := &promText{w: w}
	p.metric(name, help, typ)
	for _, s := range samples {
		p.sample(name, s.Labels, nil, s.Value)
	}
	return p.err
}

// promText accumulates exposition lines, latching the first write error.
type promText struct {
	w   io.Writer
	err error
}

func (p *promText) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *promText) metric(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *promText) sample(name string, base, extra []PromLabel, v float64) {
	p.printf("%s%s %s\n", name, renderLabels(base, extra), formatValue(v))
}

// histogram renders one series as cumulative *_bucket lines plus *_sum and
// *_count. Buckets are rendered up to the last occupied one (the schema has
// 109 — most are empty) plus the mandatory +Inf; cumulative counts make the
// truncation lossless.
func (p *promText) histogram(name string, base, extra []PromLabel, ls client.LatencyStats) {
	last := -1
	for i, n := range ls.Buckets {
		if n > 0 {
			last = i
		}
	}
	var cum int64
	for i := 0; i <= last; i++ {
		cum += ls.Buckets[i]
		le := []PromLabel{{"le", formatValue(client.LatencyBucketUpperMs(i))}}
		p.printf("%s_bucket%s %d\n", name, renderLabels(base, append(extra[:len(extra):len(extra)], le...)), cum)
	}
	inf := append(extra[:len(extra):len(extra)], PromLabel{"le", "+Inf"})
	p.printf("%s_bucket%s %d\n", name, renderLabels(base, inf), ls.Count)
	p.printf("%s_sum%s %s\n", name, renderLabels(base, extra), formatValue(ls.MeanMs*float64(ls.Count)))
	p.printf("%s_count%s %d\n", name, renderLabels(base, extra), ls.Count)
}

func renderLabels(base, extra []PromLabel) string {
	n := len(base) + len(extra)
	if n == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for _, set := range [2][]PromLabel{base, extra} {
		for _, l := range set {
			if !first {
				b.WriteByte(',')
			}
			first = false
			b.WriteString(l.Name)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(l.Value))
			b.WriteByte('"')
		}
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys[M map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
