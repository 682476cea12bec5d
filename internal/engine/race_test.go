package engine

// Concurrency integration test: mixed single and batch searches from
// many goroutines against sharded indexes of all four problems. Run
// with -race; the engine's claim is that immutable indexes plus
// per-call scratch need no locking.

import (
	"context"
	"sync"
	"testing"
)

func TestConcurrentMixedSearches(t *testing.T) {
	cases := buildCases(t, 3, 0)

	// Precompute the expected ids for every (case, query) pair.
	want := make([][][]int64, len(cases))
	for ci, tc := range cases {
		want[ci] = make([][]int64, len(tc.queries))
		for qi, q := range tc.queries {
			ids, _, err := tc.unsharded.Search(context.Background(), q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want[ci][qi] = ids
		}
	}

	const goroutines = 8
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ci := (g + r) % len(cases)
				tc := cases[ci]
				if g%2 == 0 {
					// Single searches, one query at a time.
					for qi, q := range tc.queries {
						ids, _, err := tc.sharded.Search(context.Background(), q, Options{})
						if err != nil {
							errs <- err
							return
						}
						if !sameIDs(ids, want[ci][qi]) {
							t.Errorf("goroutine %d: %s query %d diverged under concurrency", g, tc.name, qi)
						}
					}
				} else {
					// Whole batch at once.
					for bi, br := range SearchBatch(context.Background(), tc.sharded, tc.queries, Options{}, 2) {
						if br.Err != nil {
							errs <- br.Err
							return
						}
						if !sameIDs(br.IDs, want[ci][bi]) {
							t.Errorf("goroutine %d: %s batch query %d diverged under concurrency", g, tc.name, bi)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
