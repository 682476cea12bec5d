// Command experiments regenerates the tables behind every figure of
// the pigeonring paper's evaluation (Figures 2 and 5–12) on the
// synthetic stand-in datasets.
//
// Usage:
//
//	experiments [flags] [fig2|fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|all]...
//
// With no arguments it runs everything. -scale multiplies every dataset
// size, -queries sets the sampled queries per setting, -seed the
// generation seed, and -csv also writes one fig<ID>.csv per figure
// into a directory.
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"time"

	"repro/internal/bench"
)

func main() {
	cfg := bench.DefaultConfig()
	scale := flag.Float64("scale", cfg.Scale, "dataset size multiplier")
	queries := flag.Int("queries", cfg.Queries, "queries per setting")
	seed := flag.Int64("seed", cfg.Seed, "dataset generation seed")
	csvDir := flag.String("csv", "", "also write one CSV per figure into this directory")
	flag.Usage = usage
	flag.Parse()
	cfg.Scale, cfg.Queries, cfg.Seed = *scale, *queries, *seed

	names := flag.Args()
	if len(names) == 0 {
		names = []string{"all"}
	}
	for _, name := range names {
		run, ok := bench.Runners[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n\n", name)
			usage()
			os.Exit(2)
		}
		start := time.Now()
		figs := run(cfg)
		for _, f := range figs {
			f.WriteTable(os.Stdout)
		}
		if *csvDir != "" {
			if _, err := bench.SaveCSVs(figs, *csvDir); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: writing CSVs: %v\n", err)
				os.Exit(1)
			}
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: experiments [flags] [experiment]...")
	fmt.Fprintln(os.Stderr, "experiments:")
	for _, n := range slices.Sorted(maps.Keys(bench.Runners)) {
		fmt.Fprintf(os.Stderr, "  %s\n", n)
	}
	flag.PrintDefaults()
}
