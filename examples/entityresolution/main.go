// Entity resolution with string edit distance search.
//
// The paper's motivating example (§2.2): the same entity appears under
// alternative spellings — al-Qaeda, al-Qaida, al-Qa'ida — and an edit
// distance search with τ = 2 captures them. This example indexes a
// name dictionary with planted spelling variants through the engine's
// Search API and compares the Pivotal baseline (chain length 1)
// against the Ring filter.
//
// Run with:
//
//	go run ./examples/entityresolution
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/strdist"
)

func main() {
	log.SetFlags(0)
	const tau = 2

	// A synthetic name dictionary plus the paper's spelling variants.
	names := dataset.IMDB(20000, 11)
	variants := []string{"al-qaeda", "al-qaida", "al-qa'ida", "al-queda", "alqaeda"}
	names = append(names, variants...)

	// A 4-shard engine index: every search fans out across the shards
	// and honors the context, exactly as pigeonringd serves it.
	ix, err := engine.BuildString(names, 2, tau, 4, 0)
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	query := "al-qaeda"
	fmt.Printf("searching %d names for ed(x, %q) <= %d\n\n", len(names), query, tau)

	q := engine.StringQuery(query)
	_, pivStats, err := ix.Search(ctx, q, engine.Options{ChainLength: 1})
	if err != nil {
		log.Fatal(err)
	}
	ringRes, ringStats, err := ix.Search(ctx, q, engine.Options{ChainLength: 3})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-22s %12s %12s\n", "", "candidates", "results")
	fmt.Printf("%-22s %12d %12d\n", "Pivotal (pigeonhole)", pivStats.Candidates, pivStats.Results)
	fmt.Printf("%-22s %12d %12d\n", "Ring (pigeonring l=3)", ringStats.Candidates, ringStats.Results)

	if pivStats.Results != ringStats.Results {
		log.Fatal("exactness violated: the two filters disagree")
	}

	fmt.Printf("\nmatches:\n")
	for _, id := range ringRes {
		d := strdist.EditDistance(names[id], query)
		fmt.Printf("  %-12q ed = %d\n", names[id], d)
	}
}
