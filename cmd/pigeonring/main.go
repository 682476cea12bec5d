// Command pigeonring demonstrates the four τ-selection similarity
// workloads on synthetic data from the command line, comparing the
// pigeonhole baseline against the pigeonring filter through the
// unified engine layer.
//
// Usage:
//
//	pigeonring -problem hamming|set|string|graph [-mode search|join]
//	           [-n 5000] [-tau τ] [-l chain] [-queries 10] [-shards 1]
//	           [-limit 0] [-k 0] [-tile-size 0] [-show 10]
//	           [-save file] [-from-snapshot file]
//
// -save persists the built index as a snapshot container after the
// run's build step; -from-snapshot skips dataset generation and opens
// a previously saved container instead (the problem, τ and shard
// layout come from the file, overriding -problem/-n/-tau/-shards).
// Built indexes come from the same code as the daemon's /v1/load
// (server.Build), with its defaults and bounds. Sampled queries are
// replayed from the index itself, so a snapshot-opened index needs no
// regenerated dataset.
//
// In search mode (the default), for each sampled query it prints the
// result count and the candidate counts of the baseline (l = 1) and
// the pigeonring filter, plus the timing totals. In join mode it
// self-joins the whole database — the all-pairs workload behind dedup
// and entity resolution — once with the baseline filter and once with
// the ring filter, and reports pairs, candidates and the speedup.
// -k switches search mode into top-k: instead of everything within τ,
// each sampled query asks for its k nearest objects via the engine's
// adaptive τ-ladder, and the run prints the ranked (id, distance)
// results plus how many ladder rungs each query climbed. -k is
// mutually exclusive with -limit and join mode.
//
// -shards fans searches (and join tiles) out across an
// engine.Sharded index; -limit stops each search after its first n
// ids, or the join after its first n pairs. -tile-size fixes the edge
// length of the join's 2-D tile decomposition (0 auto-sizes; the
// output never changes, only the schedule) and -show caps how many
// pairs join mode prints (-1 = all — the CI parity smoke diffs the
// full listing of tiled vs single-tile runs). Ctrl-C cancels the run
// mid-query: everything runs under a signal-bound context, so an
// interrupted sweep stops at the next row or shard boundary instead
// of finishing the whole batch.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pigeonring: ")
	problem := flag.String("problem", "hamming", "hamming | set | string | graph")
	mode := flag.String("mode", "search", "search | join (all-pairs self-join)")
	n := flag.Int("n", 5000, "database size")
	tau := flag.Float64("tau", -1, "threshold (defaults per problem)")
	l := flag.Int("l", 0, "chain length (defaults to the paper's tuning)")
	queries := flag.Int("queries", 10, "number of sampled queries")
	shards := flag.Int("shards", 1, "engine shards per index (-1 = auto by corpus size)")
	limit := flag.Int("limit", 0, "stop each search after the first n ids (0 = all)")
	topK := flag.Int("k", 0, "top-k mode: return the k nearest objects per query instead of everything within τ (0 = off)")
	tileSize := flag.Int("tile-size", 0, "join tile edge length in rows (0 = auto)")
	show := flag.Int("show", 10, "max pairs to print in join mode (-1 = all)")
	seed := flag.Int64("seed", 42, "dataset seed")
	save := flag.String("save", "", "write the built index to this snapshot file")
	fromSnapshot := flag.String("from-snapshot", "", "open the index from this snapshot file instead of building")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	p, err := engine.ParseProblem(*problem)
	if err != nil {
		log.Printf("%v", err)
		flag.Usage()
		os.Exit(2)
	}

	if *mode != "search" && *mode != "join" {
		log.Printf("unknown mode %q (want search or join)", *mode)
		flag.Usage()
		os.Exit(2)
	}
	if *topK < 0 || (*topK > 0 && (*limit > 0 || *mode == "join")) {
		log.Print("-k must be positive and is mutually exclusive with -limit and -mode join")
		flag.Usage()
		os.Exit(2)
	}

	var ix engine.Index
	if *fromSnapshot != "" {
		// The snapshot records the problem; it overrides -problem so a
		// saved set index never searches as hamming by accident.
		ix, _, err = engine.OpenSnapshotFile(*fromSnapshot, 0, nil)
		if err != nil {
			log.Fatal(err)
		}
		p = ix.Problem()
	} else {
		req := server.LoadRequest{Problem: string(p), N: *n, Seed: *seed, Shards: *shards}
		if *tau >= 0 {
			req.Tau = tau
		}
		if ix, _, err = server.Build(req, 0); err != nil {
			log.Fatal(err)
		}
	}
	if *save != "" {
		written, err := engine.WriteSnapshotFile(ix, *save, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved snapshot %s (%d bytes)\n", *save, written)
	}
	baseName := map[engine.Problem]string{
		engine.Hamming: "GPH", engine.Set: "pkwise", engine.String: "Pivotal", engine.Graph: "Pars",
	}[p]
	if *mode == "join" {
		runJoin(ctx, ix, p, baseName, *l, *limit, *shards, *tileSize, *show)
		return
	}
	if *topK > 0 {
		runTopK(ctx, ix, p, *topK, *l, *queries, *shards, *seed)
		return
	}
	fmt.Printf("%s search: n=%d τ=%g shards=%d l=%d (0 = paper default)\n",
		p, ix.Len(), ix.Tau(), *shards, *l)

	var t tally
	opt := engine.Options{ChainLength: *l, Limit: *limit}
	base := engine.Options{ChainLength: 1, Limit: *limit}
	sampled := dataset.SampleQueries(ix.Len(), *queries, *seed)
	for _, qi := range sampled {
		q, err := engine.Object(ix, qi)
		if err != nil {
			log.Fatal(err)
		}
		_, bst, err := ix.Search(ctx, q, base)
		if stopOnCancel(err) {
			return
		}
		t.base += bst.Candidates
		t.baseMS += float64(bst.WallNS) / 1e6
		res, rst, err := ix.Search(ctx, q, opt)
		if stopOnCancel(err) {
			return
		}
		t.ring += rst.Candidates
		t.ringMS += float64(rst.WallNS) / 1e6
		t.results += len(res)
	}
	t.report(baseName, len(sampled))
}

// runTopK runs the sampled queries in top-k mode and prints each
// query's ranked (id, distance) results with the τ-ladder depth it
// took to find them.
func runTopK(ctx context.Context, ix engine.Index, p engine.Problem, k, l, queries int, shards int, seed int64) {
	fmt.Printf("%s top-%d search: n=%d τ=%g shards=%d l=%d (0 = paper default)\n",
		p, k, ix.Len(), ix.Tau(), shards, l)
	opt := engine.Options{TopK: k, ChainLength: l}
	totalRungs, totalMS := 0, 0.0
	sampled := dataset.SampleQueries(ix.Len(), queries, seed)
	for _, qi := range sampled {
		q, err := engine.Object(ix, qi)
		if err != nil {
			log.Fatal(err)
		}
		res, st, err := ix.SearchTopK(ctx, q, opt)
		if stopOnCancel(err) {
			return
		}
		totalRungs += st.Rungs
		totalMS += float64(st.WallNS) / 1e6
		fmt.Printf("query %d: %d results in %d rungs\n", qi, len(res), st.Rungs)
		for i, r := range res {
			if i == 10 {
				fmt.Printf("  … %d more\n", len(res)-i)
				break
			}
			fmt.Printf("  id %d  distance %g\n", r.ID, r.Distance)
		}
	}
	if n := len(sampled); n > 0 {
		fmt.Printf("\navg: %.1f rungs/query, %.3fms/query\n",
			float64(totalRungs)/float64(n), totalMS/float64(n))
	}
}

// runJoin self-joins the database twice — pigeonhole baseline, then
// ring filter — and reports the pair count, candidate totals and the
// speedup, mirroring the search-mode tally.
func runJoin(ctx context.Context, ix engine.Index, p engine.Problem, baseName string, l, limit, shards, tileSize, show int) {
	fmt.Printf("%s self-join: n=%d τ=%g shards=%d l=%d (0 = paper default)\n",
		p, ix.Len(), ix.Tau(), shards, l)

	_, bst, err := ix.Join(ctx, engine.JoinOptions{ChainLength: 1, Limit: limit, TileSize: tileSize})
	if stopOnCancel(err) {
		return
	}
	pairs, rst, err := ix.Join(ctx, engine.JoinOptions{ChainLength: l, Limit: limit, TileSize: tileSize})
	if stopOnCancel(err) {
		return
	}
	baseMS := float64(bst.WallNS) / 1e6
	ringMS := float64(rst.WallNS) / 1e6
	speedup := "n/a"
	if ringMS > 0 {
		speedup = fmt.Sprintf("%.2fx", baseMS/ringMS)
	}
	fmt.Printf("\n%-12s candidates: %d\n", baseName, bst.Candidates)
	fmt.Printf("%-12s candidates: %d\n", "Ring", rst.Candidates)
	fmt.Printf("pairs: %d (tiles: %d", len(pairs), rst.JoinTiles)
	if rst.Limited {
		fmt.Printf(", limited to first %d", limit)
	}
	fmt.Printf(")\n")
	for i, pr := range pairs {
		if i == show {
			fmt.Printf("  … %d more\n", len(pairs)-i)
			break
		}
		fmt.Printf("  (%d, %d)\n", pr.I, pr.J)
	}
	fmt.Printf("join time: %s %.3fms, Ring %.3fms (speedup %s)\n", baseName, baseMS, ringMS, speedup)
}

// stopOnCancel distinguishes a Ctrl-C abort (clean exit) from a real
// search failure (fatal).
func stopOnCancel(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) {
		log.Print("interrupted, stopping")
		return true
	}
	log.Fatal(err)
	return true
}

type tally struct {
	base, ring, results int
	baseMS, ringMS      float64
}

func (t tally) report(baseName string, queries int) {
	// Guard the divisions: -queries 0 is a legal (if pointless) run,
	// and sub-millisecond ring time rounds to zero; print n/a instead
	// of NaN/+Inf.
	perQuery := func(format string, v float64) string {
		if queries <= 0 {
			return "n/a"
		}
		return fmt.Sprintf(format, v/float64(queries))
	}
	speedup := "n/a"
	if t.ringMS > 0 {
		speedup = fmt.Sprintf("%.2fx", t.baseMS/t.ringMS)
	}
	fmt.Printf("\n%-12s candidates: %d (%s/query)\n", baseName, t.base, perQuery("%.1f", float64(t.base)))
	fmt.Printf("%-12s candidates: %d (%s/query)\n", "Ring", t.ring, perQuery("%.1f", float64(t.ring)))
	fmt.Printf("results: %d\n", t.results)
	fmt.Printf("avg time: %s %s, Ring %s (speedup %s)\n",
		baseName, perQuery("%.3fms", t.baseMS), perQuery("%.3fms", t.ringMS), speedup)
}
