// Dedup: all-pairs self-join with the engine's v3 Join API.
//
// Near-duplicate detection is the paper's second headline workload:
// instead of answering one query, find every pair of records in the
// database that are similar enough to be the same real-world entity.
// This example runs it on a synthetic DBLP-like corpus of token sets
// (publication titles as sorted token ids) at Jaccard τ = 0.8 and
// demonstrates the v3 primitives on a sharded index:
//
//   - Join returns every duplicate pair (i, j) with i < j, ascending
//     by (i, j), pair-identical whether the index is sharded or not.
//   - JoinOptions.ChainLength contrasts the pkwise baseline (l = 1)
//     against the pigeonring filter: same pairs, fewer candidates.
//   - JoinOptions.Limit trims the join to its first k pairs.
//   - JoinSeq streams pairs one at a time once the join completes.
//   - A context deadline abandons a join mid-fan-out.
//
// Run with:
//
//	go run ./examples/dedup
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/setsim"
)

func main() {
	log.SetFlags(0)
	const n = 4000

	sets := dataset.DBLP(n, 7)
	cfg := setsim.Config{Measure: setsim.Jaccard, Tau: 0.8, M: 5}
	ix, err := engine.BuildSet(sets, cfg, 8, 0)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	fmt.Printf("corpus: %d token sets, 8 shards, Jaccard τ = %v\n\n", ix.Len(), ix.Tau())

	// The full join, pigeonhole baseline vs. ring filter: identical
	// pairs, fewer candidates reaching verification.
	base, bst, err := ix.Join(ctx, engine.JoinOptions{ChainLength: 1})
	if err != nil {
		log.Fatal(err)
	}
	ring, rst, err := ix.Join(ctx, engine.JoinOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pkwise (l=1): %d duplicate pairs, %d candidates, %.1fms\n",
		len(base), bst.Candidates, float64(bst.WallNS)/1e6)
	fmt.Printf("ring (l=2):   %d duplicate pairs, %d candidates, %.1fms\n",
		len(ring), rst.Candidates, float64(rst.WallNS)/1e6)
	fmt.Printf("join tiles: %d\n\n", rst.JoinTiles)
	if len(base) != len(ring) {
		log.Fatal("filters disagree on the duplicate set — impossible, both verify exactly")
	}

	// A deduplication report rarely needs every pair up front: Limit
	// asks for the first k of the (i, j) order.
	first, st, err := ix.Join(ctx, engine.JoinOptions{Limit: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first %d pairs (limited=%v):\n", len(first), st.Limited)
	for _, p := range first {
		fmt.Printf("  records %d and %d are near-duplicates\n", p.I, p.J)
	}

	// Or stream them: JoinSeq yields pairs one at a time; breaking out
	// stops the iteration.
	fmt.Printf("\nstreaming the first 3:\n")
	count := 0
	for p, err := range ix.JoinSeq(ctx, engine.JoinOptions{}) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  (%d, %d)\n", p.I, p.J)
		if count++; count == 3 {
			break
		}
	}

	// A deadline abandons the join mid-fan-out, between row searches.
	tight, cancel := context.WithTimeout(ctx, time.Microsecond)
	defer cancel()
	_, _, err = ix.Join(tight, engine.JoinOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		log.Fatalf("expected a deadline error, got %v", err)
	}
	fmt.Printf("\n1µs deadline: join abandoned with %v\n", context.DeadlineExceeded)
}
