package engine

import "context"

// The join API makes the paper's second headline workload — the
// all-pairs self-join behind dedup, entity resolution and record
// matching — first-class in the engine, mirroring the Search
// contract: context-cancellable and limit-aware.
//
// Every implementation runs the 2-D tile decomposition of tiles.go:
// the id range [0, n) splits into contiguous ranges, the pair space
// into upper-triangle tiles, and a work-stealing pool probes each
// tile's rows against its column range through the backends'
// range-restricted searches (ascending-id posting lists make the
// restriction two binary searches per probed list). Because every
// backend search is exact, the parallel result is pair-for-pair
// identical to the backends' quadratic JoinLinear references — and,
// on a sharded index, to the unsharded join.
//
// Cancellation is checked between row probes inside each tile and
// between tile dispatches, so a join over n rows aborts within one
// backend pass of the context failing. JoinOptions.Limit trims the
// output to the first Limit pairs of the (I, J) order; unlike a
// search limit it cannot abandon work, because a late row's pairs may
// sort arbitrarily early (row n−1 can produce pair (0, n−1)).

// Pair is one unordered result pair of a self-join in the engine's
// global id space, with I < J.
type Pair struct {
	I, J int64
}

// JoinOptions tune one engine self-join, mirroring the search Options.
// The zero value asks for the index defaults: its build-time τ, the
// paper's recommended chain length, auto-sized tiles, and no pair
// limit.
type JoinOptions struct {
	// ChainLength is the pigeonring chain length l applied to every
	// row's search. 0 selects the paper's per-problem recommendation;
	// 1 runs the pigeonhole baseline; l ≥ 2 enables the ring filter.
	ChainLength int
	// Limit, when > 0, trims the join to its first Limit pairs in
	// ascending (I, J) order — exactly the first min(Limit, total)
	// pairs of the unlimited join. Stats.Limited reports a cut. ≤ 0
	// means unlimited.
	Limit int
	// TileSize, when > 0, fixes the edge length (in rows) of the 2-D
	// tile decomposition; 0 auto-sizes from the corpus and worker pool
	// (see resolveTileSize). The tiling never changes the output —
	// only the schedule's granularity: smaller tiles balance better
	// and bound per-worker memory tighter, at the price of repeating
	// each row's fixed query-preparation cost once per tile the row
	// appears in. On a sharded index tiles additionally never straddle
	// a shard boundary.
	TileSize int
	// SkipVerify stops every row's search after candidate generation;
	// Stats are filled but no pairs are returned.
	SkipVerify bool
	// Hooks, when non-nil, receives span notifications as the join
	// progresses: one Tile callback per completed tile and a
	// StageSort span for the final pair ordering. Hooks never
	// propagate into the per-row probes — a join over n rows would
	// emit n query-level spans of pure noise. Nil costs one pointer
	// check; see the Hooks type for the callback contract.
	Hooks *Hooks
}

// Joiner is the self-join half of Index: every pair of distinct
// indexed objects within the index's default threshold, reported
// ascending by (I, J). Every Index implements it, so callers call it
// directly:
//
//	pairs, st, err := ix.Join(ctx, opt)
type Joiner interface {
	// Join returns all result pairs in ascending (I, J) order along
	// with aggregate statistics (Stats.Pairs, Stats.JoinTiles). It
	// returns ctx.Err() when the context fails before the join
	// completes; cancellation is honored between row probes, so one
	// backend pass is the unit of non-interruptible work.
	Join(ctx context.Context, opt JoinOptions) ([]Pair, Stats, error)
}

// searchOptions maps join options onto the per-row search options.
// Limit never propagates: a row must report every smaller-id partner,
// however many pairs the caller wants in total.
func (opt JoinOptions) searchOptions() Options {
	return Options{
		ChainLength: opt.ChainLength,
		SkipVerify:  opt.SkipVerify,
	}
}

// Join runs the tiled self-join of one plain adapter: its range probe
// answers each row, and the pool width defaults to GOMAXPROCS (a plain
// adapter has no worker knob; shard the index to bound join
// parallelism).
func (a *adapter) Join(ctx context.Context, opt JoinOptions) ([]Pair, Stats, error) {
	ranges := tileRanges(a.n, resolveTileSize(a.n, opt.TileSize, 0), nil)
	return joinTiles(ctx, a, 0, opt, ranges)
}

// --- Sharded join ------------------------------------------------------------

// Join self-joins the whole sharded database: the tile ranges are cut
// at shard boundaries (a tile's column range always lies inside one
// shard), tiles fan out across the worker pool, and each row probes
// exactly the shard its tile's column range lives in. The output is
// pair-for-pair identical to joining one unsharded index over the
// whole database, for the same reason sharded search is id-identical:
// every shard returns exact, ascending results.
func (s *Sharded) Join(ctx context.Context, opt JoinOptions) ([]Pair, Stats, error) {
	ranges := tileRanges(s.total, resolveTileSize(s.total, opt.TileSize, s.workers), s.offsets[1:])
	return joinTiles(ctx, s, s.workers, opt, ranges)
}
