package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// metricDef is one metric of BENCHMARK.json: its unit, and whether it is a
// per-layer metric (printed in the JSON line of a traced run) or an
// end-to-end one (printed in the JSON line of an untraced run).
type metricDef struct {
	unit   string
	better string
	layer  bool
}

var metricDefs = map[string]metricDef{
	// End to end, from the untraced run.
	"setup_s":     {"s", "lower", false},
	"read_p50_ms": {"ms", "lower", false},
	"heap_mb":     {"MiB", "lower", false},

	// Per layer, from the traced run.
	"road.range_ms.p50":             {"ms", "lower", true},
	"road.range_ms.p90":             {"ms", "lower", true},
	"social.core_peel_ms.p50":       {"ms", "lower", true},
	"mac.prepare_ms.p50":            {"ms", "lower", true},
	"mac.prepare_self_ms.p50":       {"ms", "lower", true},
	"domgraph.build_ms.p50":         {"ms", "lower", true},
	"mac.search_ms.p50":             {"ms", "lower", true},
	"mac.search_ms.p90":             {"ms", "lower", true},
	"mac.cells_explored":            {"count", "lower", true},
	"mac.hyperplanes":               {"count", "lower", true},
	"mac.partitions":                {"count", "lower", true},
	"service.queue_ms.p50":          {"ms", "lower", true},
	"service.queue_ms.p90":          {"ms", "lower", true},
	"service.prepare_ms.p50":        {"ms", "lower", true},
	"service.search_ms.p50":         {"ms", "lower", true},
	"service.search_ms.p90":         {"ms", "lower", true},
	"service.encode_ms.p50":         {"ms", "lower", true},
	"client.overhead_ms.p50":        {"ms", "lower", true},
	"service.cache_hit_ratio":       {"share", "higher", true},
	"service.invalidated_per_write": {"count", "lower", true},
	"mutate.apply_ms.p50":           {"ms", "lower", true},
	"mutate.apply_ms.p90":           {"ms", "lower", true},
	"social.core_maint_ms.p50":      {"ms", "lower", true},
	"social.truss_maint_ms.p50":     {"ms", "lower", true},
	"social.truss_maint_ms.p90":     {"ms", "lower", true},
	"mutate.journal_ms.p50":         {"ms", "lower", true},
	"mutate.core_changed":           {"count", "lower", true},
	"mutate.truss_changed":          {"count", "lower", true},
	"standing.eval_ms.p50":          {"ms", "lower", true},
	"standing.evals":                {"count", "lower", true},
	"standing.notified":             {"count", "lower", true},
	"standing.coalesce_ratio":       {"ratio", "higher", true},
	"standing.lagged":               {"count", "lower", true},
	"setup.register_s":              {"s", "lower", true},
	"setup.warm_s":                  {"s", "lower", true},
	"workload.repeat_share":         {"share", "higher", true},
	"trace.overhead_ratio":          {"ratio", "higher", true},
	"trace.traced_ops_per_s":        {"ops/s", "higher", true},
	"trace.untraced_ops_per_s":      {"ops/s", "higher", true},
	// End-to-end figures that are not gated, from the untraced phase of the
	// traced run. A gated metric must be nonzero on every workload (live's
	// write and notify latencies are not) and steady on every workload:
	// live's throughput and read tail follow the machine's memory-bound
	// phases (see notes.json).
	"ops_per_s":     {"ops/s", "higher", true},
	"read_p90_ms":   {"ms", "lower", true},
	"write_p50_ms":  {"ms", "lower", true},
	"write_p90_ms":  {"ms", "lower", true},
	"notify_p50_ms": {"ms", "lower", true},
	"notify_p90_ms": {"ms", "lower", true},
	"error_rate":    {"share", "lower", true},
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// chunkOps is the op count of the chunks the throughput is taken over, for
// workloads whose rounds are shorter.
const chunkOps = 100

// chunks cuts the phase's ops, in op order, into whole chunks: one round of
// the op list (or chunkOps ops), so every chunk asks the same mix. A chunk
// ends when its last op completes.
func chunks(p *phase) (spans [][]*rec, ends []time.Duration) {
	size := p.round
	if size < chunkOps/2 {
		size = chunkOps
	}
	var end time.Duration
	for lo := 0; lo+size <= len(p.recs); lo += size {
		c := p.recs[lo : lo+size]
		for _, r := range c {
			end = max(end, r.end)
		}
		spans, ends = append(spans, c), append(ends, end)
	}
	return spans, ends
}

// chunked reports a figure as the median over the phase's chunks, so a
// burst of machine noise moves one chunk's figure, not the run's. Phases
// shorter than three chunks report the figure over all their ops.
func chunked(p *phase, figure func(recs []*rec, span time.Duration) float64) float64 {
	cs, ends := chunks(p)
	if len(cs) < 3 {
		return figure(p.recs, p.elapsed)
	}
	figures := make([]float64, len(cs))
	var prev time.Duration
	for i, c := range cs {
		figures[i] = figure(c, ends[i]-prev)
		prev = ends[i]
	}
	return median(figures)
}

// throughput is the completed ops per second of a span.
func throughput(recs []*rec, span time.Duration) float64 {
	ok := 0
	for _, r := range recs {
		if r.status == 0 {
			ok++
		}
	}
	return float64(ok) / span.Seconds()
}

// latencies splits the successful ops into read and write latencies.
func latencies(recs []*rec) (reads, writes []float64) {
	for _, r := range recs {
		if r.status != 0 {
			continue
		}
		if r.mut != nil {
			writes = append(writes, r.ms())
		} else {
			reads = append(reads, r.ms())
		}
	}
	return reads, writes
}

// notifyLatencies pairs each membership-changing delta with the latest
// acked write at or below its version: ack to arrival, in milliseconds (0
// when the delta beat the ack).
func notifyLatencies(p *phase) []float64 {
	var writes []*rec
	for _, r := range p.recs {
		if r.mut != nil && r.status == 0 {
			writes = append(writes, r)
		}
	}
	sort.Slice(writes, func(i, j int) bool { return writes[i].version < writes[j].version })
	var out []float64
	for _, e := range p.events {
		if !e.ev.MembersChanged || e.ev.Lagged {
			continue
		}
		i := sort.Search(len(writes), func(i int) bool { return writes[i].version > e.ev.Version }) - 1
		if i < 0 {
			continue
		}
		out = append(out, float64(max(e.at-writes[i].end, 0))/float64(time.Millisecond))
	}
	return out
}

// endToEnd adds the end-to-end metrics of an untraced phase, and live's
// write and notify latencies.
func endToEnd(p *phase, res *result) {
	setup := make([]float64, len(p.setups))
	for i, s := range p.setups {
		setup[i] = s.register + s.warm
	}
	reads, writes := latencies(p.recs)
	res.add("setup_s", median(setup), len(setup))
	res.note("set-up times (s): %.3f", setup)
	res.add("ops_per_s", chunked(p, throughput), len(p.recs))
	// Read percentiles pool every read of the phase: a median over the
	// chunks' medians rests on about a hundred reads each and spread more
	// across runs (notes.json, measured.read_estimator).
	res.add("read_p50_ms", percentile(reads, 0.5), len(reads))
	res.add("read_p90_ms", percentile(reads, 0.9), len(reads))
	res.add("heap_mb", p.heapMiB, 1)
	notify := notifyLatencies(p)
	res.add("write_p50_ms", percentile(writes, 0.5), len(writes))
	res.add("write_p90_ms", percentile(writes, 0.9), len(writes))
	res.add("notify_p50_ms", percentile(notify, 0.5), len(notify))
	res.add("notify_p90_ms", percentile(notify, 0.9), len(notify))
	res.note("GOMAXPROCS %d; timed phase %.2fs over %d ops%s", runtime.GOMAXPROCS(0), p.elapsed.Seconds(), len(p.recs),
		map[bool]string{true: " (op list exhausted)", false: ""}[p.exhausted.Load()])
}

// perLayer adds the per-layer metrics of a traced run: timed library calls
// from the replay, Server-Timing phases and client overhead from the SDK
// spans, and the program's own outputs (response fields, /metrics deltas).
func perLayer(cfg config, in *inputs, base, traced *phase, rep *replayed, res *result) {
	rt := rep.tracer
	addP := func(name, span string, q float64) {
		d := rt.durations(span)
		res.add(name, percentile(d, q), len(d))
	}
	addP("road.range_ms.p50", "road.range", 0.5)
	addP("road.range_ms.p90", "road.range", 0.9)
	addP("social.core_peel_ms.p50", "social.core_peel", 0.5)
	addP("mac.prepare_ms.p50", "mac.prepare", 0.5)
	addP("domgraph.build_ms.p50", "domgraph.build", 0.5)
	addP("mac.search_ms.p50", "mac.search", 0.5)
	addP("mac.search_ms.p90", "mac.search", 0.9)
	addP("mutate.apply_ms.p50", "mutate.apply", 0.5)
	addP("mutate.apply_ms.p90", "mutate.apply", 0.9)
	addP("social.core_maint_ms.p50", "social.core_maint", 0.5)
	addP("social.truss_maint_ms.p50", "social.truss_maint", 0.5)
	addP("social.truss_maint_ms.p90", "social.truss_maint", 0.9)
	addP("mutate.journal_ms.p50", "mutate.journal", 0.5)
	addP("standing.eval_ms.p50", "standing.eval", 0.5)
	self := prepareSelf(rt)
	res.add("mac.prepare_self_ms.p50", percentile(self, 0.5), len(self))

	tt := traced.tracer
	addT := func(name, span string, q float64) {
		d := tt.durations(span)
		res.add(name, percentile(d, q), len(d))
	}
	addT("service.queue_ms.p50", "service.queue", 0.5)
	addT("service.queue_ms.p90", "service.queue", 0.9)
	addT("service.prepare_ms.p50", "service.prepare", 0.5)
	addT("service.search_ms.p50", "service.search", 0.5)
	addT("service.search_ms.p90", "service.search", 0.9)
	addT("service.encode_ms.p50", "service.encode", 0.5)
	over := tt.selfTimes("sdk.read")
	res.add("client.overhead_ms.p50", percentile(over, 0.5), len(over))

	ex := exact(cfg, traced)
	for _, name := range exactNames {
		res.add(name, float64(ex.Counts[name]), ex.Prefix)
	}
	hits, reads, inval, writes, repeats := 0, 0, 0, 0, 0
	seen := map[string]bool{}
	for _, r := range traced.recs {
		k := in.ops[r.op].key()
		if seen[k] {
			repeats++
		}
		seen[k] = true
		if r.status != 0 {
			continue
		}
		if r.mut != nil {
			writes++
			inval += r.mut.Invalidated
			continue
		}
		reads++
		if r.cacheHit {
			hits++
		}
	}
	res.add("workload.repeat_share", ratio(float64(repeats), float64(len(traced.recs))), len(traced.recs))
	res.add("service.cache_hit_ratio", ratio(float64(hits), float64(reads)), reads)
	res.add("service.invalidated_per_write", ratio(float64(inval), float64(writes)), writes)
	m := traced.metrics
	evals, notified := m["macserver_standing_evals_total"], m["macserver_standing_notified_total"]
	res.add("standing.evals", evals, 1)
	res.add("standing.notified", notified, 1)
	res.add("standing.coalesce_ratio", ratio(notified, evals), int(evals))
	lagged := m["macserver_standing_lagged_total"]
	res.add("standing.lagged", lagged, 1)
	res.fail("lagged standing event", int(lagged))

	reg := make([]float64, len(base.setups))
	warm := make([]float64, len(base.setups))
	for i, s := range base.setups {
		reg[i], warm[i] = s.register, s.warm
	}
	res.add("setup.register_s", median(reg), len(reg))
	res.add("setup.warm_s", median(warm), len(warm))

	tops, bops := throughput(traced.recs, traced.elapsed), throughput(base.recs, base.elapsed)
	res.add("trace.traced_ops_per_s", tops, len(traced.recs))
	res.add("trace.untraced_ops_per_s", bops, len(base.recs))
	res.add("trace.overhead_ratio", ratio(tops, bops), 2)
	res.note("replay covered %d of %d traced ops", rep.ops, len(traced.recs))
	res.note("client blocking time: %s", rootShares(tt))
	res.note("read blocking time: %s", shares(tt, "sdk.read", "client.overhead"))
	res.note("replayed layers, self times without overlap: %s", replayShares(rt))
	for _, n := range rep.notes {
		res.note("replay: %s", n)
	}
}

// replayParts sums, per replayed op, the durations of each span name, in
// milliseconds, in op order.
func replayParts(t *tracer) []map[string]float64 {
	byOp := map[int]map[string]float64{}
	var order []int
	for _, s := range t.spans {
		m := byOp[s.Op]
		if m == nil {
			m = map[string]float64{}
			byOp[s.Op] = m
			order = append(order, s.Op)
		}
		m[s.Name] += s.ms()
	}
	out := make([]map[string]float64, len(order))
	for i, op := range order {
		out[i] = byOp[op]
	}
	return out
}

// selfParts splits one replayed op's time over layers that do not overlap.
// mac.Engine.Prepare runs its own range query and core peel,
// mac.Prepared.Search builds the domgraph of a region new to its LRU, and
// mutate.Apply runs the incremental core and truss maintenance; the replay
// times each of those parts on its own as well, so the enclosing call is
// counted by its self time.
func selfParts(m map[string]float64) map[string]float64 {
	self := func(whole string, parts ...string) float64 {
		v := m[whole]
		for _, p := range parts {
			v -= m[p]
		}
		return max(v, 0)
	}
	out := map[string]float64{}
	for _, name := range []string{"road.range", "social.core_peel", "domgraph.build",
		"social.core_maint", "social.truss_maint", "mutate.journal", "standing.eval"} {
		out[name] = m[name]
	}
	out["mac.prepare.self"] = self("mac.prepare", "road.range", "social.core_peel")
	out["mac.search.self"] = self("mac.search", "domgraph.build")
	out["mutate.apply.self"] = self("mutate.apply", "social.core_maint", "social.truss_maint")
	return out
}

// prepareSelf is, per replayed read, mac.prepare minus the range query and
// the core peel it contains, all timed on the same inputs.
func prepareSelf(t *tracer) []float64 {
	var out []float64
	for _, m := range replayParts(t) {
		if m["mac.prepare"] > 0 {
			out = append(out, selfParts(m)["mac.prepare.self"])
		}
	}
	return out
}

// replayShares splits the replay's summed library time over its
// non-overlapping layers, largest first.
func replayShares(t *tracer) string {
	total := map[string]float64{}
	var all float64
	for _, m := range replayParts(t) {
		for name, v := range selfParts(m) {
			total[name] += v
			all += v
		}
	}
	return sharesOf(total, all)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// shares splits the summed time of the named root spans over their
// children, which do not overlap; the remainder is attributed to rest.
func shares(t *tracer, root, rest string) string {
	total := map[string]time.Duration{}
	var all time.Duration
	for _, s := range t.spans {
		if s.Name == root {
			all += s.End - s.Start
		}
	}
	if all == 0 {
		return "none"
	}
	var covered time.Duration
	for _, s := range t.spans {
		if s.Parent >= 0 && t.spans[s.Parent].Name == root {
			total[s.Name] += s.End - s.Start
			covered += s.End - s.Start
		}
	}
	total[rest] = all - covered
	ms := map[string]float64{}
	for n, d := range total {
		ms[n] = float64(d)
	}
	return sharesOf(ms, float64(all))
}

// rootShares splits the summed time of the root spans (the SDK calls) by
// their names.
func rootShares(t *tracer) string {
	total := map[string]float64{}
	var all float64
	for _, s := range t.spans {
		if s.Parent < 0 {
			total[s.Name] += s.ms()
			all += s.ms()
		}
	}
	return sharesOf(total, all)
}

// sharesOf prints each part's share of all, largest first; parts with no
// time are left out.
func sharesOf(parts map[string]float64, all float64) string {
	if all <= 0 {
		return "none"
	}
	names := make([]string, 0, len(parts))
	for n, v := range parts {
		if v > 0 {
			names = append(names, n)
		}
	}
	sort.Slice(names, func(i, j int) bool { return parts[names[i]] > parts[names[j]] })
	out := ""
	for _, n := range names {
		out += fmt.Sprintf("%s %.1f%% ", n, 100*parts[n]/all)
	}
	return out
}

// percentile is the nearest-rank q-quantile.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}
