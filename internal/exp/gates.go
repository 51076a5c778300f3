package exp

import "fmt"

// Gate is one machine-independent invariant of a service_latency record.
// The measured metric X must be present and positive, and must compare
// with a bound built from the same record: X < Y, X > B, or X < A·Y + B.
// A gate holds at the record scales it lists; Skip says why the others are
// not gated. cmd/benchgate evaluates every gate against every
// service_latency record it is given.
type Gate struct {
	X      string
	Less   bool    // X < bound; otherwise X > bound
	Y      string  // metric of the bound; "" for the constant bound B
	A, B   float64 // bound = A·Y + B
	Scales []string
	Skip   string
}

func below(x, y string) Gate         { return Gate{X: x, Less: true, Y: y, A: 1} }
func above(x string, b float64) Gate { return Gate{X: x, B: b} }

func (g Gate) at(scales []string, skip string) Gate {
	g.Scales, g.Skip = scales, skip
	return g
}

var (
	allScales  = []string{"tiny", "small", "medium"}
	tinyScale  = []string{"tiny"}
	smallScale = []string{"small", "medium"}
)

// ServiceGates is the invariant table of the service_latency experiment.
// Each metric it names is written by a phase in service.go.
var ServiceGates = []Gate{
	// The prepared cache pays off: over the same keys, a warm request's
	// server-side service time (prepare plus search) is below a cold one's.
	below("warm_service_p50_ms", "cold_service_p50_ms").at(allScales, ""),
	// A cache hit beats a cold prepare even with 4 clients queued on it.
	below("load_p50_ms", "cold_p50_ms").at(tinyScale,
		"above tiny, queueing behind the other clients can outweigh the cold prepare (cold/load 0.65 in the small record of BENCH_PR10.json); the service-time row gates there"),
	// The same for the truss engine, paired by key: truss keys' searches
	// differ several-fold in cost, which swamps a p50-against-p50
	// comparison of 4 cold and 12 warm samples.
	above("truss_cold_minus_warm_ms", 0).at(tinyScale,
		"above tiny, half the truss keys pass the request deadline (ROADMAP item 3), so the comparison would rest on two keys"),
	above("saturated_429", 0).at(allScales, ""),
	above("batch_amortization", 1).at(allScales, ""),
	below("register_snapshot_ms", "register_build_ms").at(allScales, ""),
	below("register_mmap_ms", "register_snapshot_ms").at(smallScale,
		"a tiny image restores in one HTTP round trip either way, so buffered against mmap is noise"),
	above("heap_bytes_per_dataset", 0).at(allScales, ""),
	below("mutate_incremental_ms", "mutate_full_ms").at(smallScale,
		"at tiny incremental maintenance loses to a full decomposition (3.7 against 1.5 ms in BENCH_PR10.json; ROADMAP item 2)"),
	above("mixed_mutations", 0).at(allScales, ""),
	above("mixed_p99_ms", 0).at(allScales, ""),
	// A push is one re-evaluation, a cold-prepare-sized job, plus SSE
	// fan-out; 250 ms absorbs scheduler jitter. The bound reads the cold
	// median: the cold p99 is the slowest of a few samples, which made the
	// bound minutes long at small.
	{X: "standing_notify_p99_ms", Less: true, Y: "cold_p50_ms", A: 100, B: 250, Scales: allScales},
	above("standing_burst_evals", 0).at(allScales, ""),
	above("standing_coalesce_ratio", 1).at(smallScale,
		"a tiny re-evaluation finishes between back-to-back writes, so no backlog forms to coalesce"),
}

func (g Gate) String() string {
	op := ">"
	if g.Less {
		op = "<"
	}
	switch {
	case g.Y == "":
		return fmt.Sprintf("%s %s %g", g.X, op, g.B)
	case g.A == 1 && g.B == 0:
		return fmt.Sprintf("%s %s %s", g.X, op, g.Y)
	}
	return fmt.Sprintf("%s %s %g·%s + %g", g.X, op, g.A, g.Y, g.B)
}

// metrics lists the metrics the gate reads.
func (g Gate) metrics() []string {
	if g.Y == "" {
		return []string{g.X}
	}
	return []string{g.X, g.Y}
}

// GatesAt reports whether the gate holds at a record scale.
func (g Gate) GatesAt(scale string) bool {
	for _, s := range g.Scales {
		if s == scale {
			return true
		}
	}
	return false
}

// Eval checks the gate on one record's metrics and describes the values it
// compared. A missing metric fails the gate.
func (g Gate) Eval(m map[string]float64) (string, bool) {
	for _, name := range g.metrics() {
		if _, ok := m[name]; !ok {
			return name + " missing", false
		}
	}
	x, bound := m[g.X], g.B
	if g.Y != "" {
		bound += g.A * m[g.Y]
	}
	holds := x > bound
	if g.Less {
		holds = x < bound
	}
	return fmt.Sprintf("%s = %.4g, bound %.4g", g.X, x, bound), x > 0 && holds
}
