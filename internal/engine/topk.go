package engine

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"
)

// Top-k search: instead of "everything within τ", answer "the k
// nearest objects". A search at bound b answers exactly
// {x : d(x, q) ≤ b}, so the k smallest verified distances of one pass
// at b are the k nearest within b. How far b reaches is per backend:
//
//   - hamming: a τ ladder. The index is threshold-independent, so the
//     planner runs a full GPH/Ring search at τ = 1, 2, 4, … up to the
//     ceiling — the vector dimension, or Options.Tau when set (then
//     results stay within that radius) — and stops at the first rung
//     that verifies at least k results. Each rung's result set
//     contains every previous rung's, so that rung already holds the k
//     nearest overall, and the doubling schedule bounds the total work
//     at roughly twice the final rung's. The query is prepared once per
//     ladder — its part values and the cost model's histograms do not
//     depend on τ — and every rung searches the prepared query.
//   - string, graph, set: the filter is built for one τ and its
//     candidates at τ are a superset for every smaller threshold, so
//     top-k is one filter-and-verify pass at the built τ: the k nearest
//     *within the index's radius* (an index built for τ cannot see
//     further).
//
// Both shapes run through the same ladder loop; a one-pass backend's
// ladder is a single rung.
//
// Results order by (Distance, ID) ascending — distance-ascending with
// ascending-id tie-break — and are exact: every distance comes from
// the backend's verifier, never from a bound.

// Result is one top-k hit: an object id and its exact distance to the
// query under the backend's metric — Hamming distance, edit distance,
// or GED. The set backend maps similarity onto a distance so "nearest"
// stays "smallest": 1−J(x,q) under the Jaccard measure, −|x∩q| under
// the Overlap measure.
type Result struct {
	ID       int64   `json:"id"`
	Distance float64 `json:"distance"`
}

// compareResult orders by (Distance, ID) ascending, the output order
// of every top-k search.
func compareResult(a, b Result) int {
	if c := cmp.Compare(a.Distance, b.Distance); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// resultLess reports a < b under compareResult.
func resultLess(a, b Result) bool { return compareResult(a, b) < 0 }

// TopKSearcher is the top-k half of Index, so every Index answers it
// directly: ix.SearchTopK(ctx, q, opt). SearchTopK returns the
// Options.TopK nearest objects ordered by (Distance, ID) ascending;
// fewer when the backend's ceiling contains fewer. Options.TopK must be > 0 and
// Limit and SkipVerify must be unset (validateTopK).
type TopKSearcher interface {
	SearchTopK(ctx context.Context, q Query, opt Options) ([]Result, Stats, error)
}

// validateTopK rejects option combinations the ladder cannot honor.
func validateTopK(opt Options) error {
	if opt.TopK <= 0 {
		return fmt.Errorf("engine: SearchTopK requires Options.TopK > 0, got %d", opt.TopK)
	}
	if opt.Limit > 0 {
		return fmt.Errorf("engine: TopK and Limit are mutually exclusive — a top-k search is already bounded by k")
	}
	if opt.SkipVerify {
		return fmt.Errorf("engine: TopK requires verification (distances come from the verifier), SkipVerify is not supported")
	}
	return nil
}

// errTopKViaSearch rejects Options.TopK on the threshold-search entry
// points, where silently ignoring k would return an unranked id list.
var errTopKViaSearch = fmt.Errorf("engine: Options.TopK is answered by SearchTopK, not Search")

// resultHeap is a bounded max-heap over (Distance, ID): it keeps the k
// smallest entries pushed, with the largest at the root for O(log k)
// replacement. Hand-rolled on a flat slice — container/heap would box
// every entry through an interface on the hot path.
type resultHeap struct {
	k     int
	items []Result
}

func (h *resultHeap) reset(k int) {
	h.k = k
	h.items = h.items[:0]
}

// push offers one verified hit; it is kept only while among the k best.
func (h *resultHeap) push(id int64, d float64) {
	r := Result{ID: id, Distance: d}
	items := h.items
	if len(items) < h.k {
		items = append(items, r)
		i := len(items) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !resultLess(items[p], items[i]) {
				break
			}
			items[p], items[i] = items[i], items[p]
			i = p
		}
		h.items = items
		return
	}
	if !resultLess(r, items[0]) {
		return
	}
	items[0] = r
	i, n := 0, len(items)
	for {
		big, l, rr := i, 2*i+1, 2*i+2
		if l < n && resultLess(items[big], items[l]) {
			big = l
		}
		if rr < n && resultLess(items[big], items[rr]) {
			big = rr
		}
		if big == i {
			break
		}
		items[i], items[big] = items[big], items[i]
		i = big
	}
}

// sorted detaches the heap's contents ascending by (Distance, ID).
func (h *resultHeap) sorted() []Result {
	if len(h.items) == 0 {
		return nil
	}
	out := slices.Clone(h.items)
	slices.SortFunc(out, compareResult)
	return out
}

// topkPool recycles the per-search heap across queries, so repeated
// ladder rungs reuse one buffer and the steady-state search allocates
// only its returned slice.
var topkPool = sync.Pool{New: func() any { return new(resultHeap) }}

// intLadder returns the doubling rung bounds 1, 2, 4, … capped by (and
// always ending at) ceil.
func intLadder(ceil int) []float64 {
	if ceil <= 0 {
		return []float64{0}
	}
	bounds := make([]float64, 0, 8)
	for b := 1; b < ceil; b *= 2 {
		bounds = append(bounds, float64(b))
	}
	return append(bounds, float64(ceil))
}

// runLadder climbs be's ladder for q — its bounds, the last being the
// ceiling, each rung one full filter+verify pass — until a
// rung verifies at least k results (they then include the k nearest;
// see the package-section comment) or the ceiling rung completes, and
// returns the k best ordered by (Distance, ID). The context is checked
// between rungs — one rung is the unit of non-interruptible work,
// exactly like one threshold search. Under a sharded cutoff (cut
// non-nil) the ladder additionally reports each rung's distances into
// its slot and abandons its remaining rungs once the k global best
// provably lie within bounds already answered (topkCutoff).
func runLadder(ctx context.Context, be backend, q Query, opt Options, cut *topkCutoff, slot int) ([]Result, Stats, error) {
	k := opt.TopK
	start := time.Now()
	h := topkPool.Get().(*resultHeap)
	defer func() {
		h.items = h.items[:0]
		topkPool.Put(h)
	}()
	bounds, rung, err := be.ladder(q, opt)
	if err != nil {
		return nil, Stats{}, err
	}
	var st Stats
	for _, b := range bounds {
		if err := ctx.Err(); err != nil {
			return nil, Stats{}, err
		}
		// Each rung strictly contains the previous one, so the heap
		// restarts empty: re-pushing the superset is cheaper than
		// deduplicating against earlier rungs.
		h.reset(k)
		candBefore := st.Candidates
		if err := rung(b, h, &st); err != nil {
			return nil, Stats{}, err
		}
		st.Rungs++
		opt.Hooks.rung(st.Rungs, b, st.Candidates-candBefore)
		if cut != nil {
			cut.report(slot, h.items)
			if len(h.items) < k && cut.covered(b) {
				// k results at distance ≤ b exist globally; everything
				// this shard has not yet verified is at distance > b,
				// strictly dominated, so deeper rungs cannot contribute.
				break
			}
		}
		if len(h.items) >= k {
			break
		}
	}
	out := h.sorted()
	st.Results = len(out)
	wall := time.Since(start).Nanoseconds()
	st.TotalNS, st.WallNS = wall, wall
	opt.Hooks.stage(StageSearch, time.Duration(wall))
	return out, st, nil
}

// topkCutoff coordinates early abandonment across the shards of one
// sharded top-k search. After each rung a shard replaces its slot with
// its current best distances — replaced wholesale, never appended,
// because each rung's result set contains the previous rung's and
// appending would double-count. covered(b) reports whether the shards
// together have already verified k results at distance ≤ b; a shard
// that exhausted rung b without filling its heap may then abandon its
// remaining rungs (runLadder above). The union of the per-shard heaps
// still contains the global top k — any object of the global top k is
// among its own shard's k best — so the merge in Sharded.SearchTopK
// reproduces the unsharded answer byte for byte.
type topkCutoff struct {
	k    int
	mu   sync.Mutex
	best [][]float64
}

func newTopkCutoff(k, shards int) *topkCutoff {
	return &topkCutoff{k: k, best: make([][]float64, shards)}
}

func (c *topkCutoff) report(slot int, items []Result) {
	c.mu.Lock()
	ds := c.best[slot][:0]
	for _, r := range items {
		ds = append(ds, r.Distance)
	}
	c.best[slot] = ds
	c.mu.Unlock()
}

func (c *topkCutoff) covered(bound float64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, ds := range c.best {
		for _, d := range ds {
			if d <= bound {
				n++
				if n >= c.k {
					return true
				}
			}
		}
	}
	return false
}
