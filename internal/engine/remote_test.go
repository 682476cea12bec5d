package engine

import (
	"context"
	"testing"

	"repro/internal/dataset"
)

// Tests for the remote-scheduling surface (remote.go): tile
// enumeration covering the pair space exactly once, and tile
// validation. That the union of JoinTileRange over EnumerateTiles is
// the join, also across shard bounds, is TestExactness's tiles step.

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

func TestJoinTileRangeRejectsBadTile(t *testing.T) {
	ix, err := BuildHamming(dataset.GIST(30, 11), 16, 24, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tl := range []TileSpec{
		{RowLo: -1, RowHi: 10, ColLo: 0, ColHi: 10},
		{RowLo: 0, RowHi: ix.Len() + 1, ColLo: 0, ColHi: 1},
		{RowLo: 10, RowHi: 5, ColLo: 0, ColHi: 5},
	} {
		if _, _, err := JoinTileRange(context.Background(), ix, tl, JoinOptions{}); err == nil {
			t.Fatalf("tile %+v accepted, want range error", tl)
		}
	}
}
