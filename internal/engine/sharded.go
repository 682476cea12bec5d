package engine

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/parallel"
)

// Sharded is a composite Index over N shards, each a plain adapter
// holding a contiguous slice of the database. A query fans out to every shard on
// a worker pool; shard i's local ids are rebased by its offset and the
// per-shard results concatenated in shard order, which keeps the
// output in ascending global id order — every backend returns exact,
// sorted results, so the concatenation is id-for-id identical to
// searching one unsharded index over the whole database.
//
// The fan-out is context-aware: once ctx fails, no new shards are
// dispatched and the in-flight ones are drained before Search returns
// the context's error, so cancellation never leaks goroutines. With
// Options.Limit set, the fan-out additionally self-cancels as soon as
// a prefix of completed shards already holds the first Limit ids, so
// later shards' filtering and verification work is abandoned.
//
// Sharded is immutable after newSharded and safe for concurrent use:
// shards are themselves immutable and fan-out state is per call.
type Sharded struct {
	problem Problem
	shards  []*adapter
	offsets []int64
	workers int
	total   int
	// fan pools per-call fan-out scratch (fanScratch); the per-shard
	// Stats are allocated fresh each call because they escape into the
	// returned Stats.PerShard.
	fan sync.Pool
}

// fanScratch is the pooled per-search fan-out state: the per-shard
// result staging area and the completion flags the limit prefix scan
// reads. Shard result slices are nilled on release so pooling never
// retains them.
type fanScratch struct {
	ids      [][]int64
	searched []bool
}

func (s *Sharded) getFan() *fanScratch {
	return s.fan.Get().(*fanScratch)
}

func (s *Sharded) putFan(f *fanScratch) {
	clear(f.ids)
	clear(f.searched)
	s.fan.Put(f)
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
	s.fan.New = func() any {
		return &fanScratch{
			ids:      make([][]int64, len(shards)),
			searched: make([]bool, len(shards)),
		}
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

// Search fans q out to every shard and merges the results. The
// returned Stats aggregate all searched shards (TotalNS sums shard CPU
// time, WallNS is the end-to-end clock) and carry the per-shard
// breakdown in PerShard. When ctx fails mid-search, undispatched
// shards are skipped, in-flight ones drained, and ctx's error
// returned. With Options.Limit, shards beyond a completed prefix that
// already covers the limit are abandoned and Stats.Limited is set.
func (s *Sharded) Search(ctx context.Context, q Query, opt Options) ([]int64, Stats, error) {
	if err := checkKind(q, s.problem); err != nil {
		return nil, Stats{}, err
	}
	if opt.TopK > 0 {
		return nil, Stats{}, errTopKViaSearch
	}
	start := time.Now()
	n := len(s.shards)
	fan := s.getFan()
	defer s.putFan(fan)
	ids, searched := fan.ids, fan.searched
	perShard := make([]Stats, n)

	// Hooks: the composite owns the query-level spans (one StageSearch
	// for the whole fan-out) and reports each shard leg through the
	// Shard callback; the per-shard searches run with hooks stripped
	// so N shards don't emit N query-level spans.
	hooks := opt.Hooks
	opt.Hooks = nil
	traceShards := hooks.wantShard()

	// With a limit, the fan-out runs under a child context that is
	// cancelled as soon as shards 0..j are all done and together hold
	// at least Limit ids: every id of the first Limit lies in that
	// prefix (shard order is ascending id order), so the remaining
	// shards can only produce ids past the cutoff.
	fanCtx := ctx
	cancel := context.CancelFunc(func() {})
	if opt.Limit > 0 {
		fanCtx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	var mu sync.Mutex
	prefixDone, prefixCount := 0, 0

	err := parallel.ForEachCtx(fanCtx, n, s.workers, func(jobCtx context.Context, i int) error {
		var shardStart time.Time
		if traceShards {
			shardStart = time.Now()
		}
		shardIDs, st, err := s.shards[i].Search(jobCtx, q, opt)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		if traceShards {
			hooks.Shard(i, time.Since(shardStart), st)
		}
		for j := range shardIDs {
			shardIDs[j] += s.offsets[i]
		}
		if opt.Limit > 0 {
			mu.Lock()
			ids[i], perShard[i], searched[i] = shardIDs, st, true
			for prefixDone < n && searched[prefixDone] {
				prefixCount += len(ids[prefixDone])
				prefixDone++
			}
			if prefixCount >= opt.Limit {
				cancel()
			}
			mu.Unlock()
		} else {
			ids[i], perShard[i], searched[i] = shardIDs, st, true
		}
		return nil
	})
	limited := false
	if err != nil {
		// Distinguish our own limit-triggered cancellation (a success:
		// the prefix already holds the first Limit ids) from a caller
		// cancellation or a genuine shard failure. A failed prefix
		// shard can never satisfy the limit, so suppression is safe.
		if opt.Limit > 0 && ctx.Err() == nil && errors.Is(err, context.Canceled) && prefixCount >= opt.Limit {
			limited = true
		} else {
			return nil, Stats{}, err
		}
	}

	var agg Stats
	for i := range perShard {
		if searched[i] {
			agg.merge(perShard[i])
		}
	}
	nOut := 0
	mergeUpto := n
	if opt.Limit > 0 {
		mergeUpto = prefixDone
	}
	for i := 0; i < mergeUpto; i++ {
		nOut += len(ids[i])
	}
	out := make([]int64, 0, nOut)
	for i := 0; i < mergeUpto; i++ {
		out = append(out, ids[i]...)
	}
	if opt.Limit > 0 && len(out) > opt.Limit {
		out = out[:opt.Limit]
		limited = true
	}
	if limited {
		agg.Limited = true
		agg.Results = len(out)
	}
	agg.WallNS = time.Since(start).Nanoseconds()
	agg.PerShard = perShard
	if opt.Timings {
		hooks.stage(StageFilter, time.Duration(agg.FilterNS))
		hooks.stage(StageVerify, time.Duration(agg.VerifyNS))
	}
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
	n := len(s.shards)
	// As in Search, the composite owns the query-level spans and the
	// per-shard searches run with hooks stripped — except the Rung
	// callback, which stays per shard: the adaptive ladder behavior is
	// exactly what the telemetry wants to see.
	hooks := opt.Hooks
	opt.Hooks = nil
	if hooks.wantRung() {
		opt.Hooks = &Hooks{Rung: hooks.Rung}
	}
	traceShards := hooks.wantShard()
	opt.topkCut = newTopkCutoff(opt.TopK, n)

	results := make([][]Result, n)
	perShard := make([]Stats, n)
	err := parallel.ForEachCtx(ctx, n, s.workers, func(jobCtx context.Context, i int) error {
		sopt := opt
		sopt.topkSlot = i
		var shardStart time.Time
		if traceShards {
			shardStart = time.Now()
		}
		res, st, err := s.shards[i].SearchTopK(jobCtx, q, sopt)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		if traceShards {
			hooks.Shard(i, time.Since(shardStart), st)
		}
		for j := range res {
			res[j].ID += s.offsets[i]
		}
		results[i], perShard[i] = res, st
		return nil
	})
	if err != nil {
		return nil, Stats{}, err
	}

	var agg Stats
	total := 0
	for i := range perShard {
		agg.merge(perShard[i])
		total += len(results[i])
	}
	out := make([]Result, 0, total)
	for _, res := range results {
		out = append(out, res...)
	}
	slices.SortFunc(out, compareResult)
	if len(out) > opt.TopK {
		out = out[:opt.TopK]
	}
	agg.Results = len(out)
	agg.WallNS = time.Since(start).Nanoseconds()
	agg.PerShard = perShard
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

// SearchSeq streams q's results in ascending id order. Shards run
// concurrently, but shard i's ids are yielded only after shards 0..i-1
// have been fully yielded, preserving global order. Breaking out of
// the loop (or a failing ctx) cancels the fan-out: undispatched shards
// never run and in-flight ones are drained in the background. A
// non-nil error — the context's or a shard's — is yielded exactly once
// as the final pair.
func (s *Sharded) SearchSeq(ctx context.Context, q Query, opt Options) iter.Seq2[int64, error] {
	return func(yield func(int64, error) bool) {
		if err := checkKind(q, s.problem); err != nil {
			yield(0, err)
			return
		}
		if opt.TopK > 0 {
			yield(0, errTopKViaSearch)
			return
		}
		seqCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		n := len(s.shards)
		// As in Search: shard legs report through the Shard hook, the
		// per-shard searches run hook-free. No query-level StageSearch
		// is emitted — a stream has no single completion instant.
		hooks := opt.Hooks
		opt.Hooks = nil
		traceShards := hooks.wantShard()
		// One single-result channel per shard, buffered so a producing
		// shard never blocks on a consumer that has moved on.
		out := make([]chan []int64, n)
		for i := range out {
			out[i] = make(chan []int64, 1)
		}
		var fanErr error
		go func() {
			// fanErr is written before the channels close, and a
			// consumer reads it only after observing a closed channel,
			// so the handoff is ordered.
			fanErr = parallel.ForEachCtx(seqCtx, n, s.workers, func(jobCtx context.Context, i int) error {
				var shardStart time.Time
				if traceShards {
					shardStart = time.Now()
				}
				shardIDs, st, err := s.shards[i].Search(jobCtx, q, opt)
				if err != nil {
					return fmt.Errorf("shard %d: %w", i, err)
				}
				if traceShards {
					hooks.Shard(i, time.Since(shardStart), st)
				}
				for j := range shardIDs {
					shardIDs[j] += s.offsets[i]
				}
				out[i] <- shardIDs
				return nil
			})
			for i := range out {
				close(out[i])
			}
		}()
		yielded := 0
		for i := 0; i < n; i++ {
			shardIDs, ok := <-out[i]
			if !ok {
				// The fan-out stopped before this shard delivered:
				// a shard failed or the context did.
				err := fanErr
				if err == nil {
					err = context.Canceled
				}
				yield(0, err)
				return
			}
			for _, id := range shardIDs {
				if !yield(id, nil) {
					return
				}
				yielded++
				if opt.Limit > 0 && yielded >= opt.Limit {
					return
				}
			}
		}
	}
}
