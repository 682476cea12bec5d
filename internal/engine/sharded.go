package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/parallel"
)

// Sharded is a composite Index over N shards, each a plain adapter
// holding a contiguous slice of the database. Every query runs through
// one ordered fan-out (fanOut): the same probe on each shard, on a
// worker pool, with each shard's answer handed to the consumer in
// shard order as soon as it and every shard before it are done. Shard
// i's local ids are rebased by its offset, so the answers concatenated
// in shard order are in ascending global id order — every backend
// returns exact, sorted results, so the concatenation is id-for-id
// identical to searching one unsharded index over the whole database.
//
// The fan-out is context-aware: once ctx fails, no new shards are
// dispatched and the in-flight ones are drained before the call
// returns the context's error, so cancellation never leaks goroutines.
// A consumer that has enough stops the fan-out the same way, as a
// success: Search stops once the delivered prefix holds Options.Limit
// ids, so later shards' filtering and verification work is abandoned.
//
// Sharded is immutable after newSharded and safe for concurrent use:
// shards are themselves immutable and fan-out state is per call.
type Sharded struct {
	problem Problem
	shards  []*adapter
	offsets []int64
	workers int
	total   int
	fans    sync.Pool // of *fan, the per-call fan-out state
}

// fan is one call's fan-out state: the done flags and delivery cursor
// fanOut puts finished shards in order with, and the per-shard id
// slices and delivered-id count of a threshold search. Id slices are
// nilled on release so pooling never retains them.
type fan struct {
	mu        sync.Mutex
	done      []bool
	delivered int
	stopped   atomic.Bool
	ids       [][]int64
	count     int
}

func (s *Sharded) putFan(f *fan) {
	clear(f.done)
	clear(f.ids)
	f.delivered, f.count = 0, 0
	f.stopped.Store(false)
	s.fans.Put(f)
}

// newSharded builds a composite over shards, which must be non-empty,
// share one Problem and one default τ, and hold contiguous id ranges
// in order (shard 0 owns ids [0, shard0.Len()), shard 1 the next
// range, and so on — the layout the Build* constructors and
// OpenSnapshot emit). workers caps the per-query fan-out; ≤ 0 selects
// GOMAXPROCS.
func newSharded(shards []*adapter, workers int) (*Sharded, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("engine: no shards")
	}
	p := shards[0].Problem()
	tau := shards[0].Tau()
	offsets := make([]int64, len(shards))
	total := 0
	for i, sh := range shards {
		if sh.Problem() != p {
			return nil, fmt.Errorf("engine: shard %d is a %s index, want %s", i, sh.Problem(), p)
		}
		if sh.Tau() != tau {
			return nil, fmt.Errorf("engine: shard %d built for τ=%v, want %v", i, sh.Tau(), tau)
		}
		offsets[i] = int64(total)
		total += sh.Len()
	}
	s := &Sharded{problem: p, shards: shards, offsets: offsets, workers: workers, total: total}
	s.fans.New = func() any {
		return &fan{done: make([]bool, len(shards)), ids: make([][]int64, len(shards))}
	}
	return s, nil
}

// Problem returns the shards' common problem.
func (s *Sharded) Problem() Problem { return s.problem }

// Len returns the total number of indexed objects across shards.
func (s *Sharded) Len() int { return s.total }

// Tau returns the shards' common default threshold.
func (s *Sharded) Tau() float64 { return s.shards[0].Tau() }

// Shards returns the number of shards.
func (s *Sharded) Shards() int { return len(s.shards) }

// errEnough is how a satisfied consumer stops the fan-out. The leg
// whose delivery answered "enough" returns it, which halts dispatch
// like any failure; every earlier shard has already been delivered,
// so it is the lowest-indexed error and the one ForEachCtx returns.
var errEnough = errors.New("engine: shard fan-out stopped early")

// fanOut is the one shard fan-out behind Search and SearchTopK,
// running on f, a fan the caller holds until it has read the answers.
// leg(ctx, i) runs the query on shard i on the worker pool and returns
// the shard's Stats; its duration goes to hooks.Shard and its error
// comes back wrapped as "shard i: …". As soon as shard i and every
// shard before it are done, deliver(i) is called — in shard order, one
// call at a time, under f's lock, so it must not block — and
// f.delivered counts the calls. When deliver answers false
// ("enough"), the remaining legs are abandoned — undispatched ones
// never start, in-flight ones finish their backend pass but are never
// delivered — and fanOut succeeds. The returned Stats aggregate every
// finished shard and carry one PerShard entry per shard, zero for
// shards never run.
func (s *Sharded) fanOut(ctx context.Context, f *fan, hooks *Hooks, leg func(ctx context.Context, i int) (Stats, error), deliver func(i int) bool) (Stats, error) {
	n := len(s.shards)
	perShard := make([]Stats, n)
	traceShards := hooks.wantShard()
	err := parallel.ForEachCtx(ctx, n, s.workers, func(ctx context.Context, i int) error {
		if f.stopped.Load() {
			// Dispatched just before a delivery answered "enough".
			return errEnough
		}
		var start time.Time
		if traceShards {
			start = time.Now()
		}
		st, err := leg(ctx, i)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		if traceShards {
			hooks.Shard(i, time.Since(start), st)
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		perShard[i], f.done[i] = st, true
		for !f.stopped.Load() && f.delivered < n && f.done[f.delivered] {
			f.delivered++
			if !deliver(f.delivered - 1) {
				f.stopped.Store(true)
				return errEnough
			}
		}
		return nil
	})
	if err != nil && !errors.Is(err, errEnough) {
		return Stats{}, err
	}
	var agg Stats
	for _, st := range perShard {
		agg.Merge(st)
	}
	agg.PerShard = perShard
	return agg, nil
}

// Search fans q out to every shard and concatenates the results in
// shard order. The returned Stats aggregate all searched shards
// (TotalNS sums shard CPU time, WallNS is the end-to-end clock) and
// carry the per-shard breakdown in PerShard. When ctx fails
// mid-search, undispatched shards are skipped, in-flight ones drained,
// and ctx's error returned. With Options.Limit, shards past a
// delivered prefix that already holds Limit ids are abandoned, and
// Stats.Limited is set whenever ids were cut, including by one shard's
// own Limit.
func (s *Sharded) Search(ctx context.Context, q Query, opt Options) ([]int64, Stats, error) {
	if err := checkKind(q, s.problem); err != nil {
		return nil, Stats{}, err
	}
	if opt.TopK > 0 {
		return nil, Stats{}, errTopKViaSearch
	}
	start := time.Now()
	// The composite owns the query-level spans — one StageSearch for
	// the whole fan-out, each shard leg through the Shard callback — so
	// the per-shard searches run with hooks stripped.
	hooks := opt.Hooks
	opt.Hooks = nil
	f := s.fans.Get().(*fan)
	defer s.putFan(f)
	// Shard order is ascending id order: once the delivered prefix
	// holds Limit ids, later shards can only add ids past the cut.
	agg, err := s.fanOut(ctx, f, hooks, func(ctx context.Context, i int) (Stats, error) {
		ids, st, err := s.shards[i].Search(ctx, q, opt)
		for j := range ids {
			ids[j] += s.offsets[i]
		}
		f.ids[i] = ids
		return st, err
	}, func(i int) bool {
		f.count += len(f.ids[i])
		return opt.Limit <= 0 || f.count < opt.Limit
	})
	if err != nil {
		return nil, Stats{}, err
	}
	out := slices.Concat(f.ids[:f.delivered]...)
	if opt.Limit > 0 && (len(out) > opt.Limit || f.delivered < len(s.shards)) {
		out = out[:min(len(out), opt.Limit)]
		agg.Limited = true
		agg.Results = len(out)
	}
	agg.WallNS = time.Since(start).Nanoseconds()
	hooks.stage(StageSearch, time.Duration(agg.WallNS))
	return out, agg, nil
}

// SearchTopK fans a top-k search out to every shard and merges the
// per-shard heaps into the global k best, ordered by (Distance, ID)
// ascending — byte-identical to the unsharded answer: any object of
// the global top k is among its own shard's k best, so the union of
// the shard results contains the global top k, and the (Distance, ID)
// order is id-layout-independent. Shards share a topkCutoff so a
// shard abandons its remaining ladder rungs as soon as the k global
// best provably lie within bounds already answered; Stats.Rungs sums
// the rungs every shard actually climbed.
func (s *Sharded) SearchTopK(ctx context.Context, q Query, opt Options) ([]Result, Stats, error) {
	if err := checkKind(q, s.problem); err != nil {
		return nil, Stats{}, err
	}
	if err := validateTopK(opt); err != nil {
		return nil, Stats{}, err
	}
	start := time.Now()
	// As in Search, the composite owns the query-level spans and the
	// per-shard searches run with hooks stripped — except the Rung
	// callback, which stays per shard: the adaptive ladder behavior is
	// exactly what the telemetry wants to see.
	hooks := opt.Hooks
	opt.Hooks = nil
	if hooks.wantRung() {
		opt.Hooks = &Hooks{Rung: hooks.Rung}
	}
	cut := newTopkCutoff(opt.TopK, len(s.shards))
	results := make([][]Result, len(s.shards))
	f := s.fans.Get().(*fan)
	defer s.putFan(f)
	agg, err := s.fanOut(ctx, f, hooks, func(ctx context.Context, i int) (Stats, error) {
		res, st, err := s.shards[i].searchTopK(ctx, q, opt, cut, i)
		for j := range res {
			res[j].ID += s.offsets[i]
		}
		results[i] = res
		return st, err
	}, func(int) bool { return true })
	if err != nil {
		return nil, Stats{}, err
	}
	out := slices.Concat(results...)
	slices.SortFunc(out, compareResult)
	if len(out) > opt.TopK {
		out = out[:opt.TopK]
	}
	agg.Results = len(out)
	agg.WallNS = time.Since(start).Nanoseconds()
	hooks.stage(StageSearch, time.Duration(agg.WallNS))
	return out, agg, nil
}

// searchRange answers a range probe in global id space: the range is
// split at shard boundaries and each piece probes its shard, whose
// local ids are rebased by the shard's offset. Callers may pass ranges
// that straddle shards — a remote coordinator cannot know a replica's
// shard layout.
func (s *Sharded) searchRange(ctx context.Context, q Query, opt Options, lo, hi int, dst []int64, st *Stats) ([]int64, error) {
	for lo < hi {
		k := s.shardOf(int64(lo))
		off := int(s.offsets[k])
		cut := min(hi, off+s.shards[k].n)
		base := len(dst)
		out, err := s.shards[k].searchRange(ctx, q, opt, lo-off, cut-off, dst, st)
		if err != nil {
			return dst, fmt.Errorf("shard %d: %w", k, err)
		}
		for i := base; i < len(out); i++ {
			out[i] += int64(off)
		}
		dst = out
		lo = cut
	}
	return dst, nil
}

// object replays global id i from the shard holding it.
func (s *Sharded) object(i int) Query {
	k := s.shardOf(int64(i))
	return s.shards[k].object(i - int(s.offsets[k]))
}

// shardOf returns the index of the shard holding global id i.
func (s *Sharded) shardOf(i int64) int {
	return sort.Search(len(s.offsets), func(k int) bool { return s.offsets[k] > i }) - 1
}
