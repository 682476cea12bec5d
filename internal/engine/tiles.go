package engine

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/pairs"
	"repro/internal/parallel"
)

// The 2-D tile decomposition of a self-join. The id range [0, n) is
// split into R contiguous ranges and the pair space into the
// R(R+1)/2 upper-triangle tiles (Ri, Rj), i ≤ j: tile (i, j) owns
// every pair with its smaller id in range i and its larger id in
// range j. Each tile is one unit of the work-stealing schedule — a
// worker takes a whole tile, probes its row range against its column
// range through one reusable scratch, and detaches one exact-size
// pair slice — so per-row allocations (the old decomposition's cost)
// are gone and per-worker memory is bounded by two id ranges, the
// property that later lets a remote replica own a tile.
//
// Even a single tile improves on the old row-block decomposition:
// a row r probes only the id range [0, r) instead of searching the
// full index and discarding the upper half, so the filter work per
// pair halves. More tiles only trade parallelism against the
// per-row fixed cost that repeats once per tile a row appears in.

// idRange is a contiguous global-id range [lo, hi).
type idRange struct{ lo, hi int }

// joinTile names one upper-triangle tile by its range ordinals,
// ri ≤ rj. Range rj supplies the rows (probing side), range ri the
// columns (probed side); on a diagonal tile the two coincide and row
// r probes [lo, r).
type joinTile struct{ ri, rj int }

// minTileRows is the auto-sizing floor: ranges are never made shorter
// than this, so tiny corpora don't shatter into tiles whose fixed
// per-row costs (threshold allocation, query preparation) dominate.
const minTileRows = 64

// resolveTileSize picks the tile edge length for a corpus of n rows.
// An explicit positive tileSize wins. Auto-sizing chooses the
// smallest range count R whose R(R+1)/2 tiles keep the worker pool
// busy (at least two tiles per worker), capped so ranges stay at
// least minTileRows long.
func resolveTileSize(n, tileSize, workers int) int {
	if tileSize > 0 {
		return tileSize
	}
	if n <= 0 {
		return 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	maxR := n / minTileRows
	if maxR < 1 {
		maxR = 1
	}
	r := 1
	for r < maxR && r*(r+1)/2 < 2*workers {
		r++
	}
	return (n + r - 1) / r
}

// tileRanges splits [0, n) into ranges of roughly tileSize rows,
// additionally cutting at every bound in bounds (ascending interior
// split points — shard starts — so no range ever straddles a shard).
// Each segment between bounds is split near-evenly into
// ⌈segment/tileSize⌉ ranges.
func tileRanges(n, tileSize int, bounds []int64) []idRange {
	if tileSize < 1 {
		tileSize = 1
	}
	var out []idRange
	segStart := 0
	cut := func(segEnd int) {
		segLen := segEnd - segStart
		if segLen <= 0 {
			return
		}
		for _, c := range chunks(segLen, (segLen+tileSize-1)/tileSize) {
			out = append(out, idRange{segStart + c[0], segStart + c[1]})
		}
		segStart = segEnd
	}
	for _, b := range bounds {
		if int(b) <= segStart || int(b) >= n {
			continue
		}
		cut(int(b))
	}
	cut(n)
	return out
}

// tileWork estimates a tile's pair-probe count: rows·cols off the
// diagonal, the triangle count on it. The schedule sorts descending
// so a large tile never starts last and strands the pool behind it.
func tileWork(t joinTile, ranges []idRange) int64 {
	rows := int64(ranges[t.rj].hi - ranges[t.rj].lo)
	if t.ri == t.rj {
		return rows * (rows - 1) / 2
	}
	cols := int64(ranges[t.ri].hi - ranges[t.ri].lo)
	return rows * cols
}

// tileScratch is the per-worker reusable memory of the tile join: the
// per-row id buffer the probes append into and the per-tile pair
// accumulator (detached into an exact-size copy when the tile ends).
type tileScratch struct {
	ids   []int64
	pairs []Pair
}

// orderedTiles enumerates the upper-triangle tiles over ranges in the
// schedule order joinTiles dispatches them: descending estimated work,
// ties broken by (rj, ri) so the order is deterministic. The same
// order feeds EnumerateTiles, so a remote scheduler dispatches tiles
// exactly as the in-process pool would pull them.
func orderedTiles(ranges []idRange) []joinTile {
	tiles := make([]joinTile, 0, len(ranges)*(len(ranges)+1)/2)
	for j := range ranges {
		for i := 0; i <= j; i++ {
			tiles = append(tiles, joinTile{ri: i, rj: j})
		}
	}
	slices.SortFunc(tiles, func(a, b joinTile) int {
		wa, wb := tileWork(a, ranges), tileWork(b, ranges)
		if wa != wb {
			if wb > wa {
				return 1
			}
			return -1
		}
		if a.rj != b.rj {
			return a.rj - b.rj
		}
		return a.ri - b.ri
	})
	return tiles
}

// joinTiles runs the 2-D tiled self-join over the given id ranges:
// the upper-triangle tiles are enumerated, ordered by descending
// estimated work, and pulled by a parallel.ForEachCtx worker pool
// (channel dispatch is the work-stealing: whichever worker frees up
// takes the next tile). The merged pairs are sorted ascending by
// (I, J) and trimmed to opt.Limit — output identical to the backends'
// quadratic JoinLinear references. Each tile runs runTile on a
// pooled scratch.
func joinTiles(ctx context.Context, ix Index, workers int, opt JoinOptions, ranges []idRange) ([]Pair, Stats, error) {
	start := time.Now()
	tiles := orderedTiles(ranges)

	var pool sync.Pool
	pool.New = func() any { return new(tileScratch) }
	tilePairs := make([][]Pair, len(tiles))
	tileStats := make([]Stats, len(tiles))
	traceTiles := opt.Hooks.wantTile()
	err := parallel.ForEachCtx(ctx, len(tiles), workers, func(jobCtx context.Context, t int) error {
		tileStart := time.Now()
		tl := tiles[t]
		rows, cols := ranges[tl.rj], ranges[tl.ri]
		s := pool.Get().(*tileScratch)
		defer pool.Put(s)
		ps, agg, err := runTile(jobCtx, ix, opt, rows, cols, s)
		if err != nil {
			return err
		}
		elapsed := time.Since(tileStart)
		agg.TotalNS = elapsed.Nanoseconds()
		tilePairs[t] = append(make([]Pair, 0, len(ps)), ps...)
		tileStats[t] = agg
		if traceTiles {
			opt.Hooks.Tile(t, tl.ri, tl.rj, rows.hi-rows.lo, elapsed, agg)
		}
		return nil
	})
	if err != nil {
		return nil, Stats{}, err
	}
	var agg Stats
	nOut := 0
	for t := range tiles {
		agg.Merge(tileStats[t])
		nOut += len(tilePairs[t])
	}
	out := make([]Pair, 0, nOut)
	for _, ps := range tilePairs {
		out = append(out, ps...)
	}
	sortStart := time.Now()
	pairs.Sort(out)
	opt.Hooks.stage(StageSort, time.Since(sortStart))
	if opt.Limit > 0 && len(out) > opt.Limit {
		out = out[:opt.Limit]
		agg.Limited = true
	}
	agg.Results = len(out)
	agg.Pairs = len(out)
	agg.JoinTiles = len(tiles)
	agg.WallNS = time.Since(start).Nanoseconds()
	return out, agg, nil
}

// runTile is the tile body of joinTiles and JoinTileRange: row r of
// rows replays ix's object r and probes the columns of cols below r
// through ix.searchRange. It returns the tile's pairs (I, J), in row
// order, in s's reusable pair buffer, with the probes' counters.
// Cancellation is checked between rows.
func runTile(ctx context.Context, ix Index, opt JoinOptions, rows, cols idRange, s *tileScratch) ([]Pair, Stats, error) {
	sopt := opt.searchOptions()
	ps := s.pairs[:0]
	var agg Stats
	for r := rows.lo; r < rows.hi; r++ {
		if err := ctx.Err(); err != nil {
			return nil, Stats{}, err
		}
		hi := min(cols.hi, r)
		if hi <= cols.lo {
			continue
		}
		ids, err := ix.searchRange(ctx, ix.object(r), sopt, cols.lo, hi, s.ids[:0], &agg)
		s.ids = ids
		if err != nil {
			return nil, Stats{}, fmt.Errorf("engine: join row %d: %w", r, err)
		}
		for _, j := range ids {
			ps = append(ps, Pair{I: j, J: int64(r)})
		}
	}
	s.pairs = ps
	return ps, agg, nil
}
