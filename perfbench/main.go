// Command perfbench is the repository's benchmark. It runs one named
// workload against an in-process MAC service (service.Server) over loopback
// HTTP through the client SDK, checks every answer outside the timed phase,
// and prints the metrics by name with their units and sample counts. With
// -trace 0 it prints the end-to-end metrics; with -trace 1 it also replays
// the workload with span recording and prints the per-layer metrics.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Everything else (per-metric lines,
// failure reasons) comes before it; server logs go to standard error.
//
// Build and run it from the repository root with perfbench/run.sh:
//
//	bash perfbench/run.sh --workload explore --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// state holds what outlives one run: the determinism records and the
	// written-out traces. Temporary files (snapshot, journals) live in a
	// per-run directory under it that is removed at exit.
	state string
	// setupReps is how many times set-up is repeated (0: the constant
	// setupReps); setup_s is the median. The tests set fewer.
	setupReps int
	// prefix is the op count the exact counts cover (0: the workload's
	// default); the tests set a short one.
	prefix int
	// wrap, when set, wraps the server's HTTP handler; the tests use it to
	// corrupt an answer on the wire.
	wrap func(http.Handler) http.Handler
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: explore or live")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: draws the queries, keys, writes and op order")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 also runs the traced replay and prints the per-layer metrics")
	flag.StringVar(&cfg.state, "state", ".bench_build/perfbench-state", "directory for determinism records, traces and temporary files")
	flag.Parse()
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want explore or live)\n", cfg.workload)
		os.Exit(2)
	}
	if trace != 0 && trace != 1 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1 and -seconds positive")
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// result is what one invocation reports.
type result struct {
	workload  string
	traced    bool
	attempted int
	failed    int
	reasons   map[string]int
	metrics   []metric
	notes     []string
	// tracers are a traced run's span sets: the SDK calls, then the replay.
	tracers []*tracer
}

// metric is one printed figure with its sample count. layer marks the
// per-layer metrics, which the JSON line carries only in a traced run (and
// the end-to-end ones only in an untraced run).
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
	layer   bool
}

func (r *result) add(name string, value float64, samples int) {
	def, ok := metricDefs[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.metrics = append(r.metrics, metric{name: name, unit: def.unit, value: value, samples: samples, layer: def.layer})
}

func (r *result) fail(reason string, n int) {
	if n <= 0 {
		return
	}
	r.failed += n
	r.reasons[reason] += n
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the human-readable lines and then the JSON result line.
func (r *result) print(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	reasons := make([]string, 0, len(r.reasons))
	for k := range r.reasons {
		reasons = append(reasons, k)
	}
	sort.Strings(reasons)
	for _, k := range reasons {
		fmt.Fprintf(w, "failure: %s: %d\n", k, r.reasons[k])
	}
	rate := float64(r.failed) / float64(max(r.attempted, 1))
	fmt.Fprintf(w, "ops: attempted %d, succeeded %d, failed %d, error_rate %.6f\n",
		r.attempted, r.attempted-min(r.failed, r.attempted), r.failed, rate)
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jm{}}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "metric %s %s = %.6g %s (n=%d)\n", r.workload, m.name, m.value, m.unit, m.samples)
		if m.layer == r.traced {
			out.Metrics[m.name] = jm{Value: m.value, Unit: m.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// run executes one invocation: inputs, set-up, the untimed checks around
// the timed phase, and with trace the traced replay.
func run(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.state, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.state, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	state, err := filepath.Abs(cfg.state)
	if err != nil {
		return nil, err
	}
	cfg.state = state

	start := time.Now()
	in, err := makeInputs(cfg, dir)
	if err != nil {
		return nil, err
	}
	res := &result{workload: cfg.workload, traced: cfg.trace, reasons: map[string]int{}}
	res.note("inputs for %s seed %d: %d ops generated in %.2fs", cfg.workload, cfg.seed, len(in.ops), time.Since(start).Seconds())

	base, err := measure(cfg, in, dir, false)
	if err != nil {
		return nil, err
	}
	res.attempted += base.attempted()
	checkRun(cfg, in, base, res)
	checkDeterminism(cfg, base, res)
	endToEnd(base, res)
	if cfg.trace {
		traced, err := measure(cfg, in, dir, true)
		if err != nil {
			return nil, err
		}
		res.attempted += traced.attempted()
		countOpFailures(traced, res)
		compareExact(cfg, base, traced, res)
		rep := replay(cfg, in, traced, dir)
		res.fail("replay mismatch", rep.mismatches)
		perLayer(cfg, in, base, traced, rep, res)
		res.tracers = []*tracer{traced.tracer, rep.tracer}
		if err := writeTrace(cfg, res.tracers...); err != nil {
			res.note("trace not written: %v", err)
		}
	}
	res.add("error_rate", float64(res.failed)/float64(max(res.attempted, 1)), res.attempted)
	return res, nil
}
