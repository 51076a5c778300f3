// Command benchgate compares two perf-trajectory JSON files produced by
// `experiments -json` (e.g. the committed baseline BENCH_PR10.json vs a
// freshly generated point) and fails when a matching record regressed
// beyond the tolerance factor — benchstat-style old/new/delta gating over
// the harness records, used by CI.
//
// Records match on (experiment, scale, parallelism, queries_per, seed).
// Multiple -old/-new files (comma separated) are reduced per record by
// minimum, which suppresses scheduler noise the way benchstat's repeated
// counts do. Records whose baseline wall-clock is below -min-seconds are
// reported but never gate (they are noise-dominated).
//
// Every service_latency record in -new is then checked against the
// invariant table exp.ServiceGates: each row gates the records at its
// scales, and a row that finds no record to gate fails, so a run that lost
// a phase or a scale cannot pass by omission.
//
//	benchgate -old BENCH_PR10.json -new tiny1.json,tiny2.json,small.json -factor 3.0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"roadsocial/internal/exp"
)

type record struct {
	Experiment  string             `json:"experiment"`
	WallSeconds float64            `json:"wall_seconds"`
	AllocMB     float64            `json:"alloc_mb"`
	Parallelism int                `json:"parallelism"`
	Scale       string             `json:"scale"`
	QueriesPer  int                `json:"queries_per"`
	Seed        int64              `json:"seed"`
	Metrics     map[string]float64 `json:"metrics"`
}

type benchFile struct {
	Records []record `json:"records"`
}

func (r record) key() string {
	return fmt.Sprintf("%s/scale=%s/p=%d/q=%d/seed=%d", r.Experiment, r.Scale, r.Parallelism, r.QueriesPer, r.Seed)
}

// load reads comma-separated files and folds records by key: minimum
// wall-clock and alloc, latest metrics (metrics are medians of many
// requests already, so min-folding them would mix runs).
func load(paths string) (map[string]record, error) {
	out := make(map[string]record)
	for _, path := range strings.Split(paths, ",") {
		data, err := os.ReadFile(strings.TrimSpace(path))
		if err != nil {
			return nil, err
		}
		var bf benchFile
		if err := json.Unmarshal(data, &bf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range bf.Records {
			k := r.key()
			if prev, ok := out[k]; ok {
				if prev.WallSeconds < r.WallSeconds {
					r.WallSeconds = prev.WallSeconds
				}
				if prev.AllocMB < r.AllocMB {
					r.AllocMB = prev.AllocMB
				}
			}
			out[k] = r
		}
	}
	return out, nil
}

func main() {
	var (
		oldPaths   = flag.String("old", "", "baseline bench JSON file(s), comma separated")
		newPaths   = flag.String("new", "", "candidate bench JSON file(s), comma separated")
		factor     = flag.Float64("factor", 2.0, "fail when new wall-clock exceeds old * factor")
		minSeconds = flag.Float64("min-seconds", 0.05, "baselines below this never gate (noise)")
	)
	flag.Parse()
	if *oldPaths == "" || *newPaths == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -old and -new are required")
		os.Exit(2)
	}
	olds, err := load(*oldPaths)
	if err != nil {
		fatal(err)
	}
	news, err := load(*newPaths)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("%-44s %12s %12s %8s\n", "record", "old(s)", "new(s)", "delta")
	failed := false
	matched := 0
	for key, o := range olds {
		n, ok := news[key]
		if !ok {
			fmt.Printf("%-44s %12.3f %12s %8s\n", key, o.WallSeconds, "-", "gone")
			continue
		}
		matched++
		delta := "~"
		if o.WallSeconds > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(n.WallSeconds-o.WallSeconds)/o.WallSeconds)
		}
		verdict := ""
		if o.WallSeconds >= *minSeconds && n.WallSeconds > o.WallSeconds**factor {
			verdict = "  REGRESSION"
			failed = true
		}
		fmt.Printf("%-44s %12.3f %12.3f %8s%s\n", key, o.WallSeconds, n.WallSeconds, delta, verdict)
	}
	if matched == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no matching records between old and new (different knobs?)")
		os.Exit(2)
	}

	if !checkGates(os.Stdout, news, exp.ServiceGates) {
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("benchgate: ok")
}

// checkGates evaluates every gate against every service_latency record at
// its scales, printing one line per evaluation (and per skipped record,
// with the gate's reason), and reports whether all held. A gate that
// evaluates no record fails.
func checkGates(w io.Writer, recs map[string]record, gates []exp.Gate) bool {
	keys := make([]string, 0, len(recs))
	for k := range recs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ok := true
	for _, g := range gates {
		evaluated := 0
		for _, k := range keys {
			r := recs[k]
			if r.Experiment != "service_latency" {
				continue
			}
			if !g.GatesAt(r.Scale) {
				fmt.Fprintf(w, "skip %-6s %-48s %s\n", r.Scale, g, g.Skip)
				continue
			}
			evaluated++
			detail, held := g.Eval(r.Metrics)
			verdict := "ok  "
			if !held {
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(w, "%s %-6s %-48s %s\n", verdict, r.Scale, g, detail)
		}
		if evaluated == 0 {
			fmt.Fprintf(w, "FAIL %-6s %-48s no service_latency record at %s\n", "-", g, strings.Join(g.Scales, ", "))
			ok = false
		}
	}
	return ok
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
