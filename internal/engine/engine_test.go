package engine

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/hamming"
	"repro/internal/pairs"
	"repro/internal/setsim"
)

// testCase holds one unsharded and one sharded index per problem over
// the same synthetic data, plus a sample query that has results.
type testCase struct {
	name      string
	unsharded Index
	sharded   Index
	query     Query
}

// buildCases builds the test cases with the sharded index split into
// shards and fanning out on a pool of the given size: 1 runs
// parallel.ForEachCtx's serial loop, ≤ 0 selects GOMAXPROCS.
func buildCases(t *testing.T, shards, workers int) []testCase {
	t.Helper()
	vecs, sets := dataset.GIST(600, 1), dataset.DBLP(800, 2)
	strs, graphs := dataset.IMDB(800, 3), dataset.AIDS(90, 4)
	var cases []testCase
	add := func(name string, q Query, build func(shards, workers int) (Index, error)) {
		unsharded, err := build(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := build(shards, workers)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, testCase{name, unsharded, sharded, q})
	}
	sample := func(n int, seed int64) int { return dataset.SampleQueries(n, 1, seed)[0] }
	add("hamming", VectorQuery(vecs[sample(len(vecs), 1)]), func(s, w int) (Index, error) {
		return BuildHamming(vecs, 16, 24, s, w)
	})
	add("set", SetQuery(sets[sample(len(sets), 2)]), func(s, w int) (Index, error) {
		return BuildSet(sets, setsim.Config{Measure: setsim.Jaccard, Tau: 0.8, M: 5}, s, w)
	})
	add("string", StringQuery(strs[sample(len(strs), 3)]), func(s, w int) (Index, error) {
		return BuildString(strs, 2, 2, s, w)
	})
	add("graph", GraphQuery(graphs[sample(len(graphs), 4)]), func(s, w int) (Index, error) {
		return BuildGraph(graphs, 3, s, w)
	})
	return cases
}

func TestQueryKindMismatch(t *testing.T) {
	vecs := dataset.GIST(50, 11)
	ix, err := BuildHamming(vecs, 16, 24, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Search(context.Background(), StringQuery("nope"), Options{}); err == nil {
		t.Fatal("string query against hamming index did not error")
	}
	if _, _, err := ix.Search(context.Background(), Query{}, Options{}); err == nil {
		t.Fatal("empty query did not error")
	}
}

func TestTauOverride(t *testing.T) {
	vecs := dataset.GIST(300, 12)
	ix, err := BuildHamming(vecs, 16, 24, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	hdb, err := hamming.NewDB(vecs, 16)
	if err != nil {
		t.Fatal(err)
	}
	q := vecs[7]
	want, _, err := hdb.Search(q, 40, hamming.RingOptions(6))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ix.Search(context.Background(), VectorQuery(q), Options{Tau: Tau(40)})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, pairs.SortedIDs64(want)) {
		t.Fatalf("τ override ids %v, want %v", got, want)
	}

	if _, _, err := ix.Search(context.Background(), VectorQuery(q), Options{Tau: Tau(23.9)}); err == nil {
		t.Fatal("fractional hamming τ accepted")
	}
	if _, _, err := ix.Search(context.Background(), VectorQuery(q), Options{Tau: Tau(-1)}); err == nil {
		t.Fatal("negative hamming τ accepted")
	}
	if _, _, err := ix.Search(context.Background(), VectorQuery(q), Options{Tau: Tau(1e12)}); err == nil {
		t.Fatal("τ beyond the vector dimension accepted")
	}
	// An explicit τ=0 is an exact-match search, distinct from "unset".
	wantExact, _, err := hdb.Search(q, 0, hamming.RingOptions(6))
	if err != nil {
		t.Fatal(err)
	}
	gotExact, _, err := ix.Search(context.Background(), VectorQuery(q), Options{Tau: Tau(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotExact, pairs.SortedIDs64(wantExact)) {
		t.Fatalf("τ=0 ids %v, want %v", gotExact, wantExact)
	}

	sets := dataset.DBLP(200, 13)
	cfg := setsim.Config{Measure: setsim.Jaccard, Tau: 0.8, M: 5}
	six, err := BuildSet(sets, cfg, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = six.Search(context.Background(), SetQuery(sets[0]), Options{Tau: Tau(0.5)})
	if err == nil || !strings.Contains(err.Error(), "built for") {
		t.Fatalf("set τ override err = %v, want built-for error", err)
	}
	if _, _, err := six.Search(context.Background(), SetQuery(sets[0]), Options{Tau: Tau(0.8)}); err != nil {
		t.Fatalf("matching τ rejected: %v", err)
	}
}

func TestBuildersClampShards(t *testing.T) {
	vecs := dataset.GIST(5, 15)
	ix, err := BuildHamming(vecs, 4, 8, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	sh, ok := ix.(*Sharded)
	if !ok {
		t.Fatalf("expected *Sharded, got %T", ix)
	}
	if sh.Shards() != 5 || sh.Len() != 5 {
		t.Fatalf("shards=%d len=%d, want 5/5", sh.Shards(), sh.Len())
	}
	if _, err := BuildHamming(vecs, 4, 8, 0, 0); err != nil {
		t.Fatalf("shards=0 rejected: %v", err)
	}
	if _, err := BuildHamming(nil, 4, 8, 2, 0); err == nil {
		t.Fatal("empty database accepted")
	}
	if _, err := BuildHamming(vecs, 4, 10000, 2, 0); err == nil {
		t.Fatal("default τ beyond the vector dimension accepted")
	}
}

// TestShardedMatchesUnsharded: for every problem, a 4-way sharded index
// returns the unsharded index's ids, whether its shards fan out
// serially (one worker) or on a pool of one worker per shard, with one
// per-shard entry per shard summing to the aggregate candidates.
func TestShardedMatchesUnsharded(t *testing.T) {
	ctx := context.Background()
	serial, pooled := buildCases(t, 4, 1), buildCases(t, 4, 4)
	for ci, tc := range serial {
		t.Run(tc.name, func(t *testing.T) {
			for _, ix := range []Index{tc.sharded, pooled[ci].sharded} {
				sh, ok := ix.(*Sharded)
				if !ok || sh.Shards() != 4 || sh.Len() != tc.unsharded.Len() {
					t.Fatalf("%T: want a 4-shard *Sharded over %d objects", ix, tc.unsharded.Len())
				}
				for _, opt := range []Options{{}, {ChainLength: 1}} {
					want, _, err := tc.unsharded.Search(ctx, tc.query, opt)
					if err != nil {
						t.Fatal(err)
					}
					got, st, err := sh.Search(ctx, tc.query, opt)
					if err != nil {
						t.Fatal(err)
					}
					sum := 0
					for _, ps := range st.PerShard {
						sum += ps.Candidates
					}
					if !slices.Equal(got, want) || st.Results != len(want) || len(st.PerShard) != 4 || sum != st.Candidates {
						t.Fatalf("workers=%d l=%d: ids %v (Results %d, %d per-shard entries summing to %d of %d candidates), want %v",
							sh.workers, opt.ChainLength, got, st.Results, len(st.PerShard), sum, st.Candidates, want)
					}
				}
			}
		})
	}
}

// TestSearchBatchAlignsWithSingle: SearchBatch over a sharded index
// answers each query at its own position with the unsharded ids.
func TestSearchBatchAlignsWithSingle(t *testing.T) {
	ctx := context.Background()
	for _, tc := range buildCases(t, 3, 0) {
		t.Run(tc.name, func(t *testing.T) {
			queries := []Query{tc.query}
			for _, id := range []int{0, tc.unsharded.Len() - 1} {
				q, err := Object(tc.unsharded, id)
				if err != nil {
					t.Fatal(err)
				}
				queries = append(queries, q)
			}
			batch := SearchBatch(ctx, tc.sharded, queries, Options{}, 4)
			if len(batch) != len(queries) {
				t.Fatalf("batch returned %d results for %d queries", len(batch), len(queries))
			}
			for i, r := range batch {
				want, _, err := tc.unsharded.Search(ctx, queries[i], Options{})
				if r.Err != nil || err != nil || !slices.Equal(r.IDs, want) {
					t.Fatalf("batch result %d: ids %v (%v), want %v (%v)", i, r.IDs, r.Err, want, err)
				}
			}
		})
	}
}
