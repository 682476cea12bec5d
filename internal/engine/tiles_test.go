package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/dataset"
)

// Tests for the 2-D tile decomposition: planner edge cases (corpora
// smaller than one tile, tile size 1, row counts that don't divide
// evenly, shard-bound cuts) and the schedule-independence guarantee —
// the same pairs at every TileSize, with Limit and cancellation intact.

// TestResolveTileSize pins the auto-sizing contract: explicit sizes
// win verbatim, tiny corpora stay a single tile, and the range count
// grows with the worker pool but never pushes ranges below the
// minTileRows floor.
func TestResolveTileSize(t *testing.T) {
	cases := []struct {
		n, tileSize, workers int
		want                 int
	}{
		{1000, 64, 4, 64},   // explicit size wins
		{1000, 7, 1, 7},     // explicit, even when auto would differ
		{0, 0, 4, 1},        // empty corpus degenerates safely
		{-3, 0, 4, 1},       // negative too
		{50, 0, 8, 50},      // corpus smaller than minTileRows: one range
		{64, 0, 8, 64},      // exactly the floor: still one range
		{1000, 0, 1, 500},   // 1 worker: R=2 gives 3 tiles ≥ 2·workers
		{10000, 0, 4, 2500}, // 4 workers: R=4, R(R+1)/2=10 ≥ 8
	}
	for _, c := range cases {
		if got := resolveTileSize(c.n, c.tileSize, c.workers); got != c.want {
			t.Errorf("resolveTileSize(%d, %d, %d) = %d, want %d", c.n, c.tileSize, c.workers, got, c.want)
		}
	}
	// Whatever the worker count, ranges never shrink below minTileRows
	// (until the corpus itself is smaller than one range).
	for _, workers := range []int{1, 2, 16, 1024} {
		n := 1000
		size := resolveTileSize(n, 0, workers)
		if size < minTileRows && size != n {
			t.Errorf("workers=%d: auto tile size %d below floor %d", workers, size, minTileRows)
		}
	}
}

// checkRanges asserts the planner invariant: ranges tile [0, n)
// contiguously, are non-empty, and never straddle a bound.
func checkRanges(t *testing.T, ranges []idRange, n int, bounds []int64) {
	t.Helper()
	next := 0
	for i, r := range ranges {
		if r.lo != next || r.hi <= r.lo {
			t.Fatalf("range %d = [%d, %d), want contiguous from %d", i, r.lo, r.hi, next)
		}
		for _, b := range bounds {
			if r.lo < int(b) && int(b) < r.hi {
				t.Fatalf("range %d = [%d, %d) straddles bound %d", i, r.lo, r.hi, b)
			}
		}
		next = r.hi
	}
	if next != n {
		t.Fatalf("ranges end at %d, want %d", next, n)
	}
}

func TestTileRanges(t *testing.T) {
	// Tile size 1: one range per row.
	rs := tileRanges(5, 1, nil)
	checkRanges(t, rs, 5, nil)
	if len(rs) != 5 {
		t.Fatalf("tileSize=1 over 5 rows: %d ranges, want 5", len(rs))
	}
	// Corpus smaller than one tile: a single range.
	rs = tileRanges(10, 100, nil)
	checkRanges(t, rs, 10, nil)
	if len(rs) != 1 {
		t.Fatalf("n=10 tileSize=100: %d ranges, want 1", len(rs))
	}
	// n not divisible by the range count: near-even split, no empties.
	rs = tileRanges(100, 30, nil)
	checkRanges(t, rs, 100, nil)
	if len(rs) != 4 {
		t.Fatalf("n=100 tileSize=30: %d ranges, want 4", len(rs))
	}
	// Shard bounds cut ranges even when tiles are larger than shards,
	// and out-of-range or duplicate bounds are ignored.
	bounds := []int64{0, 25, 25, 70, 100, 120}
	rs = tileRanges(100, 1000, bounds)
	checkRanges(t, rs, 100, bounds)
	if len(rs) != 3 {
		t.Fatalf("bounded: %d ranges %v, want 3", len(rs), rs)
	}
	// Degenerate inputs.
	if rs := tileRanges(0, 10, nil); len(rs) != 0 {
		t.Fatalf("n=0: %d ranges, want 0", len(rs))
	}
	rs = tileRanges(1, 0, nil) // tileSize < 1 is clamped
	checkRanges(t, rs, 1, nil)
	if len(rs) != 1 {
		t.Fatalf("n=1 tileSize=0: %d ranges, want 1", len(rs))
	}
}

// TestJoinTileSizeParity is the schedule-independence criterion: for
// every backend, sharded and not, the join's pairs are identical at
// tile size 1 (one row per range), a prime that doesn't divide n, the
// default auto size, exactly n (a single tile), and far beyond n.
func TestJoinTileSizeParity(t *testing.T) {
	ctx := context.Background()
	for _, tc := range buildJoinCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			for name, ix := range map[string]Index{"shards=1": tc.unsharded, "shards=4": tc.sharded} {
				n := ix.Len()
				for _, size := range []int{1, 7, 0, n, n + 100} {
					got, st, err := ix.Join(ctx, JoinOptions{TileSize: size})
					if err != nil {
						t.Fatalf("%s tileSize=%d: %v", name, size, err)
					}
					if !samePairs(got, tc.want) {
						t.Fatalf("%s tileSize=%d: %d pairs, want %d", name, size, len(got), len(tc.want))
					}
					if st.JoinTiles < 1 {
						t.Fatalf("%s tileSize=%d: JoinTiles=%d, want ≥ 1", name, size, st.JoinTiles)
					}
					if size == 1 && name == "shards=1" && st.JoinTiles != n*(n+1)/2 {
						t.Fatalf("tileSize=1: JoinTiles=%d, want the full triangle %d", st.JoinTiles, n*(n+1)/2)
					}
				}
			}
		})
	}
}

// TestJoinLimitPrefixTiled: Limit composes with an explicit TileSize —
// the first k pairs of the (I, J) order, regardless of which tile
// produced them.
func TestJoinLimitPrefixTiled(t *testing.T) {
	ctx := context.Background()
	vecs := dataset.GIST(300, 11)
	for _, shards := range []int{1, 4} {
		ix, err := BuildHamming(vecs, 16, 24, shards, 0)
		if err != nil {
			t.Fatal(err)
		}
		full, _, err := ix.Join(ctx, JoinOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(full) < 2 {
			t.Fatalf("corpus yields only %d pairs; test needs ≥ 2", len(full))
		}
		k := len(full) / 2
		got, st, err := ix.Join(ctx, JoinOptions{Limit: k, TileSize: 17})
		if err != nil {
			t.Fatal(err)
		}
		if !samePairs(got, full[:k]) {
			t.Fatalf("shards=%d: limited tiled join %v, want prefix %v", shards, got, full[:k])
		}
		if !st.Limited {
			t.Fatalf("shards=%d: Limited unset on a cut join", shards)
		}
	}
}

// TestJoinCancelMidTile: a context cancelled while tiles are in flight
// surfaces context.Canceled — the per-row check inside a tile, not
// just the dispatch loop, honors it. The corpus is big enough that a
// single tile outlives the cancellation delay.
func TestJoinCancelMidTile(t *testing.T) {
	vecs := dataset.GIST(2000, 19)
	ix, err := BuildHamming(vecs, 16, 24, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// One tile spanning the whole corpus: the cancel must land
		// mid-tile or the join finishes first — either way the error
		// contract below holds, but the interesting path is mid-tile.
		_, _, err := ix.Join(ctx, JoinOptions{TileSize: len(vecs)})
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want nil or context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled tiled join did not return within 10s")
	}
}
