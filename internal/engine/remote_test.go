package engine

import (
	"context"
	"testing"

	"repro/internal/pairs"
)

// Tests for the remote-scheduling surface (remote.go): tile
// enumeration covering the pair space exactly once, the
// union-of-tiles == Join contract JoinTileRange must honor for a
// coordinator to scatter joins, and the concat-of-ranges == Search
// contract behind the range probe every join row runs — including
// ranges that straddle shard boundaries, which a remote tile cannot
// avoid.

func TestEnumerateTilesCoverage(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 129, 500} {
		for _, tileSize := range []int{0, 1, 7, 64, 500} {
			tiles := EnumerateTiles(n, tileSize, 4)
			seen := make(map[[2]int]int)
			for _, tl := range tiles {
				if tl.RowLo < 0 || tl.RowHi > n || tl.ColLo < 0 || tl.ColHi > n {
					t.Fatalf("n=%d tileSize=%d: tile %+v out of range", n, tileSize, tl)
				}
				for r := tl.RowLo; r < tl.RowHi; r++ {
					hi := min(tl.ColHi, r)
					for c := tl.ColLo; c < hi; c++ {
						seen[[2]int{c, r}]++
					}
				}
			}
			want := n * (n - 1) / 2
			if len(seen) != want {
				t.Fatalf("n=%d tileSize=%d: covered %d pairs, want %d", n, tileSize, len(seen), want)
			}
			for p, cnt := range seen {
				if cnt != 1 {
					t.Fatalf("n=%d tileSize=%d: pair %v covered %d times", n, tileSize, p, cnt)
				}
			}
		}
	}
	if got := EnumerateTiles(0, 0, 4); got != nil {
		t.Fatalf("EnumerateTiles(0) = %v, want nil", got)
	}
}

// TestJoinTileRangeUnionMatchesJoin is the scatter contract: running
// every enumerated tile through JoinTileRange and merging the sorted
// pair lists must reproduce Join pair-for-pair — on every backend,
// unsharded, sharded and reopened from a snapshot, including tiles
// that straddle the sharded index's internal shard bounds
// (EnumerateTiles cannot know them).
func TestJoinTileRangeUnionMatchesJoin(t *testing.T) {
	ctx := context.Background()
	for _, tc := range buildJoinCases(t) {
		for _, ix := range []struct {
			name string
			ix   Index
		}{{"unsharded", tc.unsharded}, {"sharded", tc.sharded}, {"reopened", tc.reopened}} {
			for _, tileSize := range []int{0, 50} {
				tiles := EnumerateTiles(ix.ix.Len(), tileSize, 4)
				var union []Pair
				nPairs := 0
				for _, tl := range tiles {
					ps, st, err := JoinTileRange(ctx, ix.ix, tl, JoinOptions{})
					if err != nil {
						t.Fatalf("%s/%s tileSize=%d: %v", tc.name, ix.name, tileSize, err)
					}
					if st.Pairs != len(ps) || st.JoinTiles != 1 {
						t.Fatalf("%s/%s: tile stats %+v inconsistent with %d pairs", tc.name, ix.name, st, len(ps))
					}
					nPairs += len(ps)
					union = append(union, ps...)
				}
				pairs.Sort(union)
				if !samePairs(union, tc.want) {
					t.Fatalf("%s/%s tileSize=%d: tile union (%d pairs) != Join reference (%d pairs)",
						tc.name, ix.name, tileSize, len(union), len(tc.want))
				}
			}
		}
	}
}

func TestJoinTileRangeRejectsBadTile(t *testing.T) {
	tc := buildJoinCases(t)[0]
	for _, tl := range []TileSpec{
		{RowLo: -1, RowHi: 10, ColLo: 0, ColHi: 10},
		{RowLo: 0, RowHi: tc.unsharded.Len() + 1, ColLo: 0, ColHi: 1},
		{RowLo: 10, RowHi: 5, ColLo: 0, ColHi: 5},
	} {
		if _, _, err := JoinTileRange(context.Background(), tc.unsharded, tl, JoinOptions{}); err == nil {
			t.Fatalf("tile %+v accepted, want range error", tl)
		}
	}
}

// TestSearchRangeConcatMatchesSearch is the range-probe contract that
// joins and JoinTileRange rely on: partitioning [0, n) into contiguous
// ranges, probing each with searchRange and concatenating in range
// order must reproduce Search's ascending id list exactly. The cut
// points are chosen to fall inside the shards of the 4-way sharded and
// the reopened 3-way sharded index.
func TestSearchRangeConcatMatchesSearch(t *testing.T) {
	ctx := context.Background()
	for _, tc := range buildJoinCases(t) {
		for _, ix := range []struct {
			name string
			ix   Index
		}{{"unsharded", tc.unsharded}, {"sharded", tc.sharded}, {"reopened", tc.reopened}} {
			n := ix.ix.Len()
			cuts := []int{0, 1, n / 3, n/3 + 1, 2*n/3 + 5, n}
			for probe := 0; probe < n; probe += n / 7 {
				q, err := Object(ix.ix, probe)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := ix.ix.Search(ctx, q, Options{})
				if err != nil {
					t.Fatal(err)
				}
				var got []int64
				for i := 0; i+1 < len(cuts); i++ {
					var st Stats
					ids, err := ix.ix.searchRange(ctx, q, Options{}, cuts[i], cuts[i+1], nil, &st)
					if err != nil {
						t.Fatalf("%s/%s range [%d,%d): %v", tc.name, ix.name, cuts[i], cuts[i+1], err)
					}
					if st.Results != len(ids) {
						t.Fatalf("%s/%s: stats Results=%d, got %d ids", tc.name, ix.name, st.Results, len(ids))
					}
					got = append(got, ids...)
				}
				if len(got) != len(want) {
					t.Fatalf("%s/%s probe %d: concat %d ids, Search %d", tc.name, ix.name, probe, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s/%s probe %d: id %d = %d, want %d", tc.name, ix.name, probe, i, got[i], want[i])
					}
				}
			}
		}
	}
}
