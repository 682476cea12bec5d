package engine

import (
	"context"

	"repro/internal/parallel"
)

// BatchResult holds the outcome of one query of a batch. Threshold
// searches fill IDs; top-k searches (Options.TopK > 0) fill TopK
// instead, ordered by (Distance, ID) ascending.
type BatchResult struct {
	IDs   []int64
	TopK  []Result
	Stats Stats
	Err   error
}

// SearchBatch answers many queries concurrently against any Index,
// parallelizing across queries on a worker pool; a sharded index
// additionally fans each query across its shards, so total parallelism
// is the product of the two pools. Indexes are immutable and searches
// keep scratch per call, so workers share idx safely. workers ≤ 0
// selects GOMAXPROCS.
//
// Results are positionally aligned with queries; per-query failures
// land in BatchResult.Err without aborting the batch. Context failure
// does abort it: once ctx fails, no further queries are dispatched,
// in-flight ones are drained (their own ctx error lands in their
// slot), and every query that never ran gets ctx's error. With an
// unfailed ctx the results are id-identical to calling Search per
// query.
//
// When opt.TopK > 0 the batch runs top-k searches instead and each
// result lands in BatchResult.TopK.
func SearchBatch(ctx context.Context, idx Index, queries []Query, opt Options, workers int) []BatchResult {
	out := make([]BatchResult, len(queries))
	ran := make([]bool, len(queries))
	parallel.ForEachCtx(ctx, len(queries), workers, func(jobCtx context.Context, i int) error {
		if opt.TopK > 0 {
			res, st, err := idx.SearchTopK(jobCtx, queries[i], opt)
			out[i] = BatchResult{TopK: res, Stats: st, Err: err}
		} else {
			ids, st, err := idx.Search(jobCtx, queries[i], opt)
			out[i] = BatchResult{IDs: ids, Stats: st, Err: err}
		}
		ran[i] = true
		return nil
	})
	if err := ctx.Err(); err != nil {
		for i := range out {
			if !ran[i] {
				out[i] = BatchResult{Err: err}
			}
		}
	}
	return out
}
