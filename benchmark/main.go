// Command benchmark is the repository's performance instrument: six
// workloads, eight end-to-end metrics each, and a separate traced run
// that times every layer from the outside. BENCHMARK.json at the
// repository root declares the names; README.md in this directory
// explains each choice.
//
//	go run ./benchmark -seed 42                 all workloads, end to end
//	go run ./benchmark -seed 42 -trace 1        all workloads, per layer
//	go run ./benchmark -seed 42 -runs 2         two sets, compared against the bounds
//	go run ./benchmark -workload set-dblp-100k -seed 7 -seconds 18 -trace 0
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; any failed op also
// makes the exit status non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// metricDef declares one metric: BENCHMARK.json carries the same rows.
type metricDef struct {
	name, unit string
	higher     bool    // better direction
	bound      float64 // end-to-end only: tolerated worsening, a share of the median
}

// endToEnd are the metrics of an untraced run, defined on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"index_heap_mb", "MB", false, 0.05},
	{"search_ops_per_s", "1/s", true, 0.25},
	{"search_p50_us", "us", false, 0.25},
	{"search_p99_us", "us", false, 0.25},
	{"topk_p50_us", "us", false, 0.25},
	{"topk_p99_us", "us", false, 0.25},
	{"join_rows_per_s", "rows/s", true, 0.25},
}

// value is one reported figure; spread is the inter-quartile range of
// its phase's per-round throughput as a share of the median — how
// unsteady the machine was while it was measured (0 when the figure is
// a single reading).
type value struct {
	v, spread float64
}

// result is what one run of one workload reports.
type result struct {
	workload          string
	attempted, failed int64
	metrics           map[string]value
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// runUntraced prepares s, checks it against the oracles and measures
// the end-to-end metrics.
func runUntraced(s spec, seed int64, seconds float64, sc scale) (result, error) {
	e, err := prepare(s, seed, false, sc.setup)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", s.name, err)
	}
	defer e.close()
	e.checkOracles()
	r := runE2E(e, seconds, sc)
	search, topk, join := r.search.summarize(), r.topk.summarize(), r.joinSummary()
	logf("%s: %d set-ups; %d rounds of %d searches, %d top-k searches and a %d-row join; %d ops attempted",
		s.name, e.setups, len(r.joins), len(r.search.want), len(r.topk.want), r.joinRows, e.attempted.Load())
	return result{
		workload:  s.name,
		attempted: e.attempted.Load(),
		failed:    e.failed.Load(),
		metrics: map[string]value{
			"setup_s":          {v: e.setupS},
			"index_heap_mb":    {v: e.indexHeapMB},
			"search_ops_per_s": {search.perS, search.spread},
			"search_p50_us":    {search.p50, search.spread},
			"search_p99_us":    {search.p99, search.spread},
			"topk_p50_us":      {topk.p50, topk.spread},
			"topk_p99_us":      {topk.p99, topk.spread},
			"join_rows_per_s":  {join.perS, join.spread},
		},
	}, nil
}

// printTable prints every metric of r by name with its unit, and
// beside each timed figure how unsteady the machine was meanwhile.
func printTable(r result, defs []metricDef) {
	for _, d := range defs {
		m := r.metrics[d.name]
		line := fmt.Sprintf("%-26s %-30s %14.4f %-7s", r.workload, d.name, m.v, d.unit)
		if m.spread > 0 {
			line += fmt.Sprintf(" iqr %4.1f%%", 100*m.spread)
		}
		fmt.Println(line)
	}
	fmt.Printf("%-26s %-30s %14.6f %-7s (%d of %d ops)\n", r.workload, "failed_frac",
		float64(r.failed)/float64(max(r.attempted, 1)), "ratio", r.failed, r.attempted)
}

// printJSON prints the driver's result line.
func printJSON(r result, defs []metricDef) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]jsonMetric{}}
	for _, d := range defs {
		out.Metrics[d.name] = jsonMetric{r.metrics[d.name].v, d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// compare prints, per workload and end-to-end metric, how much worse
// the second set of runs read than the first, against the bound — the
// acceptance check that two runs of the same code agree.
func compare(a, b []result) (ok bool) {
	ok = true
	fmt.Printf("\n%-26s %-18s %14s %14s %8s %7s\n", "workload", "metric", "run 1", "run 2", "worse by", "bound")
	for i := range a {
		for _, d := range endToEnd {
			x, y := a[i].metrics[d.name].v, b[i].metrics[d.name].v
			worse := (y - x) / x
			if d.higher {
				worse = (x - y) / x
			}
			verdict := ""
			if worse > d.bound {
				verdict, ok = "  OVER", false
			}
			fmt.Printf("%-26s %-18s %14.4f %14.4f %7.1f%% %6.0f%%%s\n", a[i].workload, d.name, x, y, 100*worse, 100*d.bound, verdict)
		}
	}
	return ok
}

func run() error {
	var (
		workload = flag.String("workload", "", "run this workload only and end with the JSON result line (default: all six, as a table)")
		seed     = flag.Int64("seed", 42, "seed of every generated input")
		seconds  = flag.Float64("seconds", 18, "time to spend measuring, per workload")
		trace    = flag.Int("trace", 0, "1: the traced run — per-layer metrics and span files instead of end-to-end metrics")
		runs     = flag.Int("runs", 1, "2: run the whole set twice and compare the two against the bounds")
		outDir   = flag.String("out", "benchmark/out", "directory for span files and snapshots of the traced run")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	// The load model assumes the two cores of the reference box: two
	// clients against two engine workers.
	runtime.GOMAXPROCS(workers)
	logf("GOMAXPROCS=%d (of %d CPUs), %d clients, %d engine workers, seed %d", runtime.GOMAXPROCS(0), runtime.NumCPU(), clients, workers, *seed)

	specs := workloads()
	if *workload != "" {
		var names []string
		var one []spec
		for _, s := range specs {
			names = append(names, s.name)
			if s.name == *workload {
				one = []spec{s}
			}
		}
		if one == nil {
			return fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(names, ", "))
		}
		specs = one
	}

	defs := endToEnd
	if *trace != 0 {
		defs = perLayer
	}
	var sets [][]result
	failed := false
	for run := 0; run < *runs; run++ {
		var set []result
		for _, s := range specs {
			var r result
			var err error
			if *trace != 0 {
				r, err = runTraced(s, *seed, *outDir, fullScale)
			} else {
				r, err = runUntraced(s, *seed, *seconds, fullScale)
			}
			if err != nil {
				return err
			}
			printTable(r, defs)
			failed = failed || r.failed > 0
			set = append(set, r)
		}
		sets = append(sets, set)
	}
	if *runs == 2 && *trace == 0 && !compare(sets[0], sets[1]) {
		logf("the two sets of runs disagree by more than a bound")
		failed = true
	}
	if *workload != "" {
		if err := printJSON(sets[len(sets)-1][0], defs); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("failed: see above")
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
