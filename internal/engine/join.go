package engine

import (
	"context"
	"fmt"
	"iter"
	"sort"

	"repro/internal/graph"
	"repro/internal/hamming"
	"repro/internal/setsim"
	"repro/internal/strdist"
)

// The join API makes the paper's second headline workload — the
// all-pairs self-join behind dedup, entity resolution and record
// matching — first-class in the engine, mirroring the Search
// contract: context-cancellable, limit-aware, with a streaming
// variant.
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
	// Timings measures the aggregate filter/verify time split by
	// running each row's candidate generation once more with
	// verification off. It roughly doubles the join's filtering cost;
	// leave it off on hot paths.
	Timings bool
	// Hooks, when non-nil, receives span notifications as the join
	// progresses: one Tile callback per completed tile and a
	// StageSort span for the final pair ordering. Hooks never
	// propagate into the per-row probes — a join over n rows would
	// emit n query-level spans of pure noise. Nil costs one pointer
	// check; see the Hooks type for the callback contract.
	Hooks *Hooks
}

// Joiner is the self-join capability of an Index: every pair of
// distinct indexed objects within the index's default threshold,
// reported ascending by (I, J). Every index this package builds —
// the four adapters and the Sharded composite over them — implements
// it; callers holding a plain Index type-assert:
//
//	if j, ok := ix.(engine.Joiner); ok { pairs, st, err := j.Join(ctx, opt) }
type Joiner interface {
	// Join returns all result pairs in ascending (I, J) order along
	// with aggregate statistics (Stats.Pairs, Stats.JoinTiles). It
	// returns ctx.Err() when the context fails before the join
	// completes; cancellation is honored between row probes, so one
	// backend pass is the unit of non-interruptible work.
	Join(ctx context.Context, opt JoinOptions) ([]Pair, Stats, error)
	// JoinSeq is the streaming variant of Join: it yields pairs in
	// ascending (I, J) order, then stops. A non-nil error is yielded
	// exactly once, as the final element, with a zero pair. The (I, J)
	// order is only known once every row has been searched, so the
	// join runs to completion before the first yield; breaking out of
	// the loop stops the remaining yields. No Stats are produced; use
	// Join when counters matter.
	JoinSeq(ctx context.Context, opt JoinOptions) iter.Seq2[Pair, error]
}

// objectSource is the capability the join machinery needs from an
// index: replaying indexed objects as queries. The four adapters
// implement it; Sharded requires it of its shards to join.
type objectSource interface {
	object(i int) Query
}

// rangeSearcher is the tile join's probing capability: a search
// restricted to the id range [lo, hi), appending its ascending
// results to dst and its counters to st, with no per-call result or
// stats allocation. The four adapters implement it; a Sharded shard
// that doesn't (a foreign Index exposing objects) is probed through
// its full Search with post-filtering.
type rangeSearcher interface {
	searchRange(ctx context.Context, q Query, opt Options, lo, hi int, dst []int64, st *Stats) ([]int64, error)
}

// searchOptions maps join options onto the per-row search options.
// Limit never propagates: a row must report every smaller-id partner,
// however many pairs the caller wants in total.
func (opt JoinOptions) searchOptions() Options {
	return Options{
		ChainLength: opt.ChainLength,
		SkipVerify:  opt.SkipVerify,
		Timings:     opt.Timings,
	}
}

// collectJoinSeq adapts a blocking Join into the JoinSeq contract:
// the join runs to completion (its output order cannot be known
// sooner), then pairs are yielded one at a time with the context
// checked between yields.
func collectJoinSeq(ctx context.Context, j Joiner, opt JoinOptions) iter.Seq2[Pair, error] {
	return func(yield func(Pair, error) bool) {
		ps, _, err := j.Join(ctx, opt)
		if err != nil {
			yield(Pair{}, err)
			return
		}
		for _, p := range ps {
			if err := ctx.Err(); err != nil {
				yield(Pair{}, err)
				return
			}
			if !yield(p, nil) {
				return
			}
		}
	}
}

// adapterJoin runs the tiled self-join of one plain adapter: the
// adapter's own range search answers each row, and the pool width
// defaults to GOMAXPROCS (a plain adapter has no worker knob; shard
// the index to bound join parallelism).
func adapterJoin(ctx context.Context, ix Index, rs rangeSearcher, src objectSource, opt JoinOptions) ([]Pair, Stats, error) {
	n := ix.Len()
	ranges := tileRanges(n, resolveTileSize(n, opt.TileSize, 0), nil)
	return joinTiles(ctx, 0, opt, ranges,
		func(jobCtx context.Context, row, lo, hi int, sopt Options, dst []int64, st *Stats) ([]int64, error) {
			return rs.searchRange(jobCtx, src.object(row), sopt, lo, hi, dst, st)
		})
}

// --- Adapter range probes ----------------------------------------------------

func (ix *hammingIndex) searchRange(ctx context.Context, q Query, opt Options, lo, hi int, dst []int64, st *Stats) ([]int64, error) {
	if err := ctx.Err(); err != nil {
		return dst, err
	}
	if err := checkKind(q, Hamming); err != nil {
		return dst, err
	}
	tau, err := ix.resolveTau(opt.Tau, ix.tau)
	if err != nil {
		return dst, err
	}
	var bst hamming.Stats
	out, err := ix.db.SearchRangeAppend(q.vec, tau, ix.backendOptions(opt), lo, hi, dst, &bst)
	if err != nil {
		return dst, err
	}
	st.Candidates += bst.Candidates
	st.Results += bst.Results
	st.Probes += bst.Probes
	st.BoxChecks += bst.BoxChecks
	return out, nil
}

func (ix *setIndex) searchRange(ctx context.Context, q Query, opt Options, lo, hi int, dst []int64, st *Stats) ([]int64, error) {
	if err := ctx.Err(); err != nil {
		return dst, err
	}
	if err := checkKind(q, Set); err != nil {
		return dst, err
	}
	if err := fixedTau(Set, opt.Tau, ix.Tau()); err != nil {
		return dst, err
	}
	var bst setsim.Stats
	out, err := ix.db.SearchRangeAppend(q.set, ix.chainLength(opt), opt.SkipVerify, lo, hi, dst, &bst)
	if err != nil {
		return dst, err
	}
	st.Candidates += bst.Candidates
	st.Results += bst.Results
	st.Probes += bst.Probes
	st.BoxChecks += bst.BoxChecks
	return out, nil
}

func (ix *stringIndex) searchRange(ctx context.Context, q Query, opt Options, lo, hi int, dst []int64, st *Stats) ([]int64, error) {
	if err := ctx.Err(); err != nil {
		return dst, err
	}
	if err := checkKind(q, String); err != nil {
		return dst, err
	}
	if err := fixedTau(String, opt.Tau, ix.Tau()); err != nil {
		return dst, err
	}
	var bst strdist.Stats
	out, err := ix.db.SearchRangeAppend(q.str, ix.backendOptions(opt), lo, hi, dst, &bst)
	if err != nil {
		return dst, err
	}
	st.Candidates += bst.Cand2 + bst.Fallback
	st.Results += bst.Results
	st.Probes += bst.Probes
	st.BoxChecks += bst.BoxChecks
	return out, nil
}

func (ix *graphIndex) searchRange(ctx context.Context, q Query, opt Options, lo, hi int, dst []int64, st *Stats) ([]int64, error) {
	if err := ctx.Err(); err != nil {
		return dst, err
	}
	if err := checkKind(q, Graph); err != nil {
		return dst, err
	}
	if err := fixedTau(Graph, opt.Tau, ix.Tau()); err != nil {
		return dst, err
	}
	var bst graph.Stats
	out, err := ix.db.SearchRangeAppend(q.g, ix.backendOptions(opt), lo, hi, dst, &bst)
	if err != nil {
		return dst, err
	}
	st.Candidates += bst.Candidates
	st.Results += bst.Results
	st.BoxChecks += bst.BoxChecks
	return out, nil
}

// --- Adapter joins -----------------------------------------------------------

func (ix *hammingIndex) Join(ctx context.Context, opt JoinOptions) ([]Pair, Stats, error) {
	return adapterJoin(ctx, ix, ix, ix, opt)
}

func (ix *hammingIndex) JoinSeq(ctx context.Context, opt JoinOptions) iter.Seq2[Pair, error] {
	return collectJoinSeq(ctx, ix, opt)
}

func (ix *setIndex) Join(ctx context.Context, opt JoinOptions) ([]Pair, Stats, error) {
	return adapterJoin(ctx, ix, ix, ix, opt)
}

func (ix *setIndex) JoinSeq(ctx context.Context, opt JoinOptions) iter.Seq2[Pair, error] {
	return collectJoinSeq(ctx, ix, opt)
}

func (ix *stringIndex) Join(ctx context.Context, opt JoinOptions) ([]Pair, Stats, error) {
	return adapterJoin(ctx, ix, ix, ix, opt)
}

func (ix *stringIndex) JoinSeq(ctx context.Context, opt JoinOptions) iter.Seq2[Pair, error] {
	return collectJoinSeq(ctx, ix, opt)
}

func (ix *graphIndex) Join(ctx context.Context, opt JoinOptions) ([]Pair, Stats, error) {
	return adapterJoin(ctx, ix, ix, ix, opt)
}

func (ix *graphIndex) JoinSeq(ctx context.Context, opt JoinOptions) iter.Seq2[Pair, error] {
	return collectJoinSeq(ctx, ix, opt)
}

// --- Sharded join ------------------------------------------------------------

// Join self-joins the whole sharded database: the tile ranges are cut
// at shard boundaries (a tile's column range always lies inside one
// shard), tiles fan out across the worker pool, and each row probes
// exactly the shard its tile's column range lives in. The output is
// pair-for-pair identical to joining one unsharded index over the
// whole database, for the same reason sharded search is id-identical:
// every shard returns exact, ascending results.
//
// Joining requires shards built by this package (or any Index exposing
// its objects to the engine); a foreign shard type fails with an
// error. Shards built by this package are probed through their
// allocation-free range searches; a foreign shard that does expose
// objects falls back to its full Search with the ids post-filtered to
// the tile's column range.
func (s *Sharded) Join(ctx context.Context, opt JoinOptions) ([]Pair, Stats, error) {
	srcs := make([]objectSource, len(s.shards))
	for i, sh := range s.shards {
		src, ok := sh.(objectSource)
		if !ok {
			return nil, Stats{}, fmt.Errorf("engine: shard %d (%T) does not expose its objects; joins need shards built by this package", i, sh)
		}
		srcs[i] = src
	}
	obj := func(i int) Query {
		k := s.shardOf(int64(i))
		return srcs[k].object(i - int(s.offsets[k]))
	}
	ranges := tileRanges(s.total, resolveTileSize(s.total, opt.TileSize, s.workers), s.offsets[1:])
	probe := func(jobCtx context.Context, row, lo, hi int, sopt Options, dst []int64, st *Stats) ([]int64, error) {
		// The tile ranges never straddle a shard, so [lo, hi) lies
		// fully inside shard k and one local range search answers it.
		k := s.shardOf(int64(lo))
		off := s.offsets[k]
		q := obj(row)
		if rs, ok := s.shards[k].(rangeSearcher); ok {
			base := len(dst)
			out, err := rs.searchRange(jobCtx, q, sopt, lo-int(off), hi-int(off), dst, st)
			if err != nil {
				return dst, fmt.Errorf("shard %d: %w", k, err)
			}
			for i := base; i < len(out); i++ {
				out[i] += off
			}
			return out, nil
		}
		// Foreign shard: full search, then keep only the tile's column
		// range. Counters cover the work actually performed, which for
		// this path is the whole shard.
		ids, bst, err := s.shards[k].Search(jobCtx, q, sopt)
		if err != nil {
			return dst, fmt.Errorf("shard %d: %w", k, err)
		}
		st.merge(bst)
		for _, id := range ids {
			gid := id + off
			if gid >= int64(lo) && gid < int64(hi) {
				dst = append(dst, gid)
			}
		}
		return dst, nil
	}
	return joinTiles(ctx, s.workers, opt, ranges, probe)
}

// JoinSeq streams the sharded join's pairs; see Joiner.JoinSeq for the
// contract.
func (s *Sharded) JoinSeq(ctx context.Context, opt JoinOptions) iter.Seq2[Pair, error] {
	return collectJoinSeq(ctx, s, opt)
}

// shardOf returns the index of the shard holding global id i.
func (s *Sharded) shardOf(i int64) int {
	return sort.Search(len(s.offsets), func(k int) bool { return s.offsets[k] > i }) - 1
}
