package engine

import (
	"context"
	"fmt"
	"time"

	"repro/internal/pairs"
)

// This file is the engine's remote-scheduling surface: the pieces a
// coordinator process needs to run the 2-D tile decomposition of
// tiles.go across daemons instead of across goroutines. A tile
// (row range × column range) plus the corpus identity is a
// self-contained work item — any replica holding the same corpus
// answers it with exactly the pairs the in-process scheduler would
// have produced — so the coordinator enumerates tiles with
// EnumerateTiles, ships them over the wire, and a replica executes
// each one with JoinTileRange. SearchRange is the analogous unit for
// scattered searches: a search restricted to a contiguous global-id
// range, so concatenating the per-range outputs in range order
// reproduces the unrestricted search id-for-id.

// TileSpec names one tile of a self-join's 2-D decomposition in
// global id space: the pairs whose larger id lies in [RowLo, RowHi)
// and whose smaller id lies in [ColLo, ColHi). On a diagonal tile the
// two ranges coincide and row r probes only columns below r, so no
// pair is ever produced twice.
type TileSpec struct {
	RowLo, RowHi int
	ColLo, ColHi int
}

// EnumerateTiles lists the upper-triangle tiles of a self-join over n
// objects, in the exact order the in-process scheduler would dispatch
// them (descending estimated work, deterministic tie-break).
// tileSize > 0 fixes the range edge length; 0 auto-sizes so the tile
// count keeps `workers` consumers busy (at least two tiles each, with
// the same 64-row floor the local join uses). The union of the
// returned tiles covers every unordered pair exactly once, whatever
// the parameters — tiling never changes a join's output, only its
// schedule.
func EnumerateTiles(n, tileSize, workers int) []TileSpec {
	if n <= 0 {
		return nil
	}
	ranges := tileRanges(n, resolveTileSize(n, tileSize, workers), nil)
	tiles := orderedTiles(ranges)
	out := make([]TileSpec, len(tiles))
	for i, t := range tiles {
		out[i] = TileSpec{
			RowLo: ranges[t.rj].lo, RowHi: ranges[t.rj].hi,
			ColLo: ranges[t.ri].lo, ColHi: ranges[t.ri].hi,
		}
	}
	return out
}

// SearchRange runs a search restricted to the contiguous global-id
// range [lo, hi): exactly the ids of Search(ctx, q, opt) that fall in
// the range, ascending. It is the scatter unit of a distributed
// search — concatenating the outputs of a partition of [0, n) in
// range order reproduces the unrestricted search id-for-id, because
// every backend's range probe is exact. Options.Limit trims the
// output to the range's first Limit ids (work past the limit is not
// abandoned); TopK and Timings are not supported on this path.
func SearchRange(ctx context.Context, ix Index, q Query, opt Options, lo, hi int) ([]int64, Stats, error) {
	if opt.TopK > 0 {
		return nil, Stats{}, fmt.Errorf("engine: top-k search cannot be range-restricted")
	}
	if opt.Timings {
		return nil, Stats{}, fmt.Errorf("engine: Timings is not supported on a range-restricted search")
	}
	if err := checkKind(q, ix.Problem()); err != nil {
		return nil, Stats{}, err
	}
	start := time.Now()
	lo = max(lo, 0)
	hi = min(hi, ix.Len())
	var st Stats
	var ids []int64
	if lo < hi {
		var err error
		if ids, err = ix.searchRange(ctx, q, opt, lo, hi, nil, &st); err != nil {
			return nil, Stats{}, err
		}
	}
	if opt.Limit > 0 && len(ids) > opt.Limit {
		ids = ids[:opt.Limit]
		st.Limited = true
	}
	st.Results = len(ids)
	st.TotalNS = time.Since(start).Nanoseconds()
	st.WallNS = st.TotalNS
	opt.Hooks.stage(StageSearch, time.Since(start))
	return ids, st, nil
}

// JoinTileRange executes one tile of a self-join on ix: every result
// pair whose larger id lies in the tile's row range and whose smaller
// id lies in its column range, ascending by (I, J). Executing every
// tile of EnumerateTiles(ix.Len(), ...) and merging the sorted pair
// lists reproduces Join's output pair-for-pair — the contract that
// lets a coordinator scatter tiles across replica processes and still
// answer byte-identically to a single node. The tile runs on the
// calling goroutine (a replica daemon gets its parallelism from
// serving many tiles concurrently); cancellation is honored between
// row probes. JoinOptions.Limit and Timings do not apply to a single
// tile and are ignored.
func JoinTileRange(ctx context.Context, ix Index, t TileSpec, opt JoinOptions) ([]Pair, Stats, error) {
	n := ix.Len()
	if t.RowLo < 0 || t.RowHi > n || t.RowLo > t.RowHi ||
		t.ColLo < 0 || t.ColHi > n || t.ColLo > t.ColHi {
		return nil, Stats{}, fmt.Errorf("engine: tile rows [%d,%d) cols [%d,%d) out of range for %d objects",
			t.RowLo, t.RowHi, t.ColLo, t.ColHi, n)
	}
	start := time.Now()
	sopt := opt.searchOptions()
	var st Stats
	var out []Pair
	var ids []int64
	for r := t.RowLo; r < t.RowHi; r++ {
		if err := ctx.Err(); err != nil {
			return nil, Stats{}, err
		}
		hi := min(t.ColHi, r)
		if hi <= t.ColLo {
			continue
		}
		var err error
		if ids, err = ix.searchRange(ctx, ix.object(r), sopt, t.ColLo, hi, ids[:0], &st); err != nil {
			return nil, Stats{}, fmt.Errorf("engine: join row %d: %w", r, err)
		}
		for _, j := range ids {
			out = append(out, Pair{I: j, J: int64(r)})
		}
	}
	pairs.Sort(out)
	st.Results = len(out)
	st.Pairs = len(out)
	st.JoinTiles = 1
	st.TotalNS = time.Since(start).Nanoseconds()
	st.WallNS = st.TotalNS
	return out, st, nil
}
