package engine

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/graph"
	"repro/internal/hamming"
	"repro/internal/setsim"
	"repro/internal/snapshot"
	"repro/internal/strdist"
)

// One adapter serves every problem. Each problem package contributes a
// thin backend wrapper — its boxes live in the package, the wrapper
// only maps engine options onto them — and adapter implements Index
// (search, top-k, join) and snapshot writing once above it: Search is
// the range probe over [0, n), every join row is the same probe over a
// window, and top-k climbs the backend's ladder.
//
// A fifth problem implements backend:
//
//   - checkTau: reject a per-query τ the index cannot answer (fixedTau
//     for an index built for one τ).
//   - searchRange: the exact range probe. It resolves chain length 0
//     to the paper's per-problem recommendation (§8), 1 to the
//     pigeonhole baseline and ≥ 2 to the ring filter, honors
//     SkipVerify, and clamps l into [1, m] as the backends do.
//   - ladder: the top-k ladder for one query (topk.go) — its rung
//     bounds and the rung that searches at one of them. A backend
//     prepares the query for its own index here, once per ladder: the
//     rung closure holds what it prepared, so no prepared state
//     reaches another shard's index.
//   - object and AppendSnapshot: replay an indexed object as a query,
//     persist the index.
//
// A backend pass is uninterruptible, so an adapter's one cancellation
// point is on entry. Finer-grained cancellation comes from sharding,
// which turns one big pass into many small ones with a context check
// between dispatches.

// backend is one problem's index as the adapter sees it. Every method
// but checkTau may assume the query's kind and opt.Tau have already
// passed validation.
type backend interface {
	// checkTau rejects a per-query threshold override (nil: the
	// index default) that the index cannot answer.
	checkTau(requested *float64) error
	// searchRange appends the ids in [lo, hi) within threshold of q to
	// dst in ascending order and reports the pass's Candidates,
	// Results, Probes and BoxChecks. The counters come back by value:
	// a pointer through the interface would move every caller's Stats
	// to the heap.
	searchRange(q Query, opt Options, lo, hi int, dst []int64) ([]int64, Stats, error)
	// ladder returns q's top-k ladder: the ascending rung bounds,
	// ending at the backend's ceiling, and rung, which answers
	// {x : d(x, q) ≤ bound}, pushing every verified hit into h and
	// adding the Candidates, Probes and BoxChecks counters to st.
	ladder(q Query, opt Options) (bounds []float64, rung rungFunc, err error)
	// object returns indexed object i as a query.
	object(i int) Query
	// AppendSnapshot adds the index's sections to b under prefix.
	AppendSnapshot(b *snapshot.Builder, prefix string) error
}

// rungFunc is one rung of a top-k ladder: it answers
// {x : d(x, q) ≤ bound} for the query its ladder was built for.
type rungFunc func(bound float64, h *resultHeap, st *Stats) error

// adapter is the one plain Index: a backend plus the immutable facts
// every search needs. The exported New* constructors return one; the
// unexported new* ones return the concrete type for the composites
// built from adapters (Sharded, snapshots).
type adapter struct {
	problem Problem
	n       int
	tau     float64
	b       backend
}

func (a *adapter) Problem() Problem { return a.problem }
func (a *adapter) Len() int         { return a.n }
func (a *adapter) Tau() float64     { return a.tau }

// check validates a query's kind, then its threshold override.
func (a *adapter) check(q Query, opt Options) error {
	if err := checkKind(q, a.problem); err != nil {
		return err
	}
	return a.b.checkTau(opt.Tau)
}

func (a *adapter) Search(ctx context.Context, q Query, opt Options) ([]int64, Stats, error) {
	if err := a.check(q, opt); err != nil {
		return nil, Stats{}, err
	}
	return timed(ctx, opt, func() ([]int64, Stats, error) {
		return a.b.searchRange(q, opt, 0, a.n, nil)
	})
}

// SearchTopK returns the Options.TopK nearest objects by climbing the
// backend's τ ladder (see topk.go for each backend's shape).
func (a *adapter) SearchTopK(ctx context.Context, q Query, opt Options) ([]Result, Stats, error) {
	return a.searchTopK(ctx, q, opt, nil, 0)
}

// searchTopK is SearchTopK as one shard of a sharded top-k: cut, when
// non-nil, is the fan-out's shared cutoff and slot this shard's place
// in it (runLadder).
func (a *adapter) searchTopK(ctx context.Context, q Query, opt Options, cut *topkCutoff, slot int) ([]Result, Stats, error) {
	if err := checkKind(q, a.problem); err != nil {
		return nil, Stats{}, err
	}
	if err := validateTopK(opt); err != nil {
		return nil, Stats{}, err
	}
	if err := a.b.checkTau(opt.Tau); err != nil {
		return nil, Stats{}, err
	}
	return runLadder(ctx, a.b, q, opt, cut, slot)
}

// object replays indexed object i through the backend.
func (a *adapter) object(i int) Query { return a.b.object(i) }

// searchRange is the checked range probe behind every join row: ids
// in [lo, hi) appended to dst, counters added to st.
func (a *adapter) searchRange(ctx context.Context, q Query, opt Options, lo, hi int, dst []int64, st *Stats) ([]int64, error) {
	if err := ctx.Err(); err != nil {
		return dst, err
	}
	if err := a.check(q, opt); err != nil {
		return dst, err
	}
	out, bst, err := a.b.searchRange(q, opt, lo, hi, dst)
	if err != nil {
		return dst, err
	}
	st.Merge(bst)
	return out, nil
}

// plain returns an unexported constructor's adapter as an Index,
// keeping the Index nil when construction failed.
func plain(a *adapter, err error) (Index, error) {
	if err != nil {
		return nil, err
	}
	return a, nil
}

// chain resolves the requested chain length against a default.
func chain(requested, def int) int {
	if requested > 0 {
		return requested
	}
	return def
}

// fixedTau rejects per-query threshold overrides on the three backends
// whose indexes are built for one τ.
func fixedTau(p Problem, requested *float64, built float64) error {
	if requested != nil && *requested != built {
		return fmt.Errorf("engine: %s index built for τ=%v, cannot search with τ=%v (rebuild the index)", p, built, *requested)
	}
	return nil
}

// pushDists offers one rung's verified hits with integer distances.
func pushDists(h *resultHeap, ids, dists []int) {
	for i, id := range ids {
		h.push(int64(id), float64(dists[i]))
	}
}

// timed runs the full search via fn with wall-clock measurement and
// applies the cross-cutting Options the backends know nothing about:
// the context is checked before the pass, and Limit truncates the
// ascending result list.
func timed(ctx context.Context, opt Options, fn func() ([]int64, Stats, error)) ([]int64, Stats, error) {
	if opt.TopK > 0 {
		// Silently ignoring k would hand back an unranked, unbounded id
		// list where the caller asked for the k nearest.
		return nil, Stats{}, errTopKViaSearch
	}
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	start := time.Now()
	ids, st, err := fn()
	if err != nil {
		return nil, Stats{}, err
	}
	if opt.Limit > 0 && len(ids) > opt.Limit {
		ids = ids[:opt.Limit]
		st.Limited = true
		st.Results = len(ids)
	}
	wall := time.Since(start)
	st.TotalNS, st.WallNS = wall.Nanoseconds(), wall.Nanoseconds()
	opt.Hooks.stage(StageSearch, wall)
	return ids, st, nil
}

// --- Hamming -----------------------------------------------------------------

type hammingBackend struct {
	db  *hamming.DB
	tau int
}

// NewHamming wraps a Hamming DB with a default threshold. Hamming is
// the one backend whose index is threshold-independent, so searches
// may override τ per query.
func NewHamming(db *hamming.DB, defaultTau int) (Index, error) {
	return plain(newHamming(db, defaultTau))
}

func newHamming(db *hamming.DB, defaultTau int) (*adapter, error) {
	if db == nil {
		return nil, fmt.Errorf("engine: nil hamming DB")
	}
	if defaultTau < 0 {
		return nil, fmt.Errorf("engine: negative default threshold %d", defaultTau)
	}
	// Same bound the per-query override enforces: distances never
	// exceed the dimension, and threshold allocation is O(τ·m).
	if defaultTau > db.Dim() {
		return nil, fmt.Errorf("engine: default threshold τ=%d exceeds the vector dimension %d", defaultTau, db.Dim())
	}
	return &adapter{Hamming, db.Len(), float64(defaultTau), &hammingBackend{db, defaultTau}}, nil
}

// checkTau accepts a non-negative integer τ of at most the dimension —
// the threshold allocation is O(τ·m), so an absurd τ would pin a
// worker.
func (b *hammingBackend) checkTau(requested *float64) error {
	if requested == nil {
		return nil
	}
	if *requested != math.Trunc(*requested) || *requested < 0 {
		return fmt.Errorf("engine: hamming threshold must be a non-negative integer, got τ=%v", *requested)
	}
	if *requested > float64(b.db.Dim()) {
		return fmt.Errorf("engine: hamming threshold τ=%v exceeds the vector dimension %d", *requested, b.db.Dim())
	}
	return nil
}

// options resolves the hamming options of one search. The paper finds
// l = 6 best for Hamming search (§8.2).
func (b *hammingBackend) options(opt Options) hamming.Options {
	hopt := hamming.RingOptions(chain(opt.ChainLength, 6))
	hopt.SkipVerify = opt.SkipVerify
	return hopt
}

func (b *hammingBackend) searchRange(q Query, opt Options, lo, hi int, dst []int64) ([]int64, Stats, error) {
	tau := b.tau
	if opt.Tau != nil {
		tau = int(*opt.Tau)
	}
	var st hamming.Stats
	dst, err := b.db.SearchRangeAppend(q.vec, tau, b.options(opt), lo, hi, dst, &st)
	return dst, Stats{Candidates: st.Candidates, Results: st.Results, Probes: st.Probes, BoxChecks: st.BoxChecks}, err
}

// ladder climbs a real τ ladder — the index is threshold-independent —
// up to the vector dimension, or Options.Tau when set (results then
// stay within that radius). The index's default τ deliberately does
// not cap the ladder: a top-k query asks for the k nearest, not the k
// nearest within the threshold-search default. The query is prepared
// once: its part values and cost-model histograms do not depend on τ,
// so every rung reuses them, and the rungs share one pair of result
// buffers.
func (b *hammingBackend) ladder(q Query, opt Options) ([]float64, rungFunc, error) {
	pq, err := b.db.Prepare(q.vec)
	if err != nil {
		return nil, nil, err
	}
	hopt := b.options(opt)
	var ids, dists []int
	rung := func(bound float64, h *resultHeap, st *Stats) error {
		var bst hamming.Stats
		var err error
		if ids, dists, err = pq.SearchDistAppend(int(bound), hopt, ids[:0], dists[:0], &bst); err != nil {
			return err
		}
		st.Candidates += bst.Candidates
		st.Probes += bst.Probes
		st.BoxChecks += bst.BoxChecks
		pushDists(h, ids, dists)
		return nil
	}
	ceil := b.db.Dim()
	if opt.Tau != nil {
		ceil = int(*opt.Tau)
	}
	return intLadder(ceil), rung, nil
}

func (b *hammingBackend) object(i int) Query { return VectorQuery(b.db.Vector(i)) }

func (b *hammingBackend) AppendSnapshot(sb *snapshot.Builder, prefix string) error {
	return b.db.AppendSnapshot(sb, prefix)
}

// --- Set similarity ----------------------------------------------------------

type setBackend struct{ db *setsim.PKWiseDB }

// NewSet wraps a pkwise/Ring set similarity DB. The threshold and
// measure are fixed by the DB's Config.
func NewSet(db *setsim.PKWiseDB) (Index, error) { return plain(newSet(db)) }

func newSet(db *setsim.PKWiseDB) (*adapter, error) {
	if db == nil {
		return nil, fmt.Errorf("engine: nil setsim DB")
	}
	return &adapter{Set, db.Len(), db.Config().Tau, &setBackend{db}}, nil
}

func (b *setBackend) checkTau(requested *float64) error {
	return fixedTau(Set, requested, b.db.Config().Tau)
}

// chainLength resolves the chain length of one search. The paper finds
// l = 2 best for set similarity search (§8.3); l = 1 is pkwise, and
// SkipVerify is a plain argument of the setsim entry points.
func (b *setBackend) chainLength(opt Options) int { return chain(opt.ChainLength, 2) }

func (b *setBackend) searchRange(q Query, opt Options, lo, hi int, dst []int64) ([]int64, Stats, error) {
	var st setsim.Stats
	dst, err := b.db.SearchRangeAppend(q.set, b.chainLength(opt), opt.SkipVerify, lo, hi, dst, &st)
	return dst, Stats{Candidates: st.Candidates, Results: st.Results, Probes: st.Probes, BoxChecks: st.BoxChecks}, err
}

// ladder is a single rung at the built τ: the pkwise index cannot see
// below its similarity threshold, and verification (one exact overlap
// count) costs the same at any threshold. The rung maps similarity
// onto a distance so "nearest" is always "smallest": 1−J(x,q) under
// the Jaccard measure, −|x∩q| under Overlap.
func (b *setBackend) ladder(q Query, opt Options) ([]float64, rungFunc, error) {
	return []float64{b.db.Config().Tau}, func(_ float64, h *resultHeap, st *Stats) error {
		ids, sims, bst, err := b.db.SearchSim(q.set, b.chainLength(opt))
		if err != nil {
			return err
		}
		st.Candidates += bst.Candidates
		st.Probes += bst.Probes
		st.BoxChecks += bst.BoxChecks
		jaccard := b.db.Config().Measure == setsim.Jaccard
		for i, id := range ids {
			d := -sims[i]
			if jaccard {
				d = 1 - sims[i]
			}
			h.push(int64(id), d)
		}
		return nil
	}, nil
}

func (b *setBackend) object(i int) Query { return SetQuery(b.db.Set(i)) }

func (b *setBackend) AppendSnapshot(sb *snapshot.Builder, prefix string) error {
	return b.db.AppendSnapshot(sb, prefix)
}

// --- Edit distance -----------------------------------------------------------

type stringBackend struct{ db *strdist.DB }

// NewString wraps a Pivotal/Ring edit distance DB. The threshold is
// fixed by the DB.
func NewString(db *strdist.DB) (Index, error) { return plain(newString(db)) }

func newString(db *strdist.DB) (*adapter, error) {
	if db == nil {
		return nil, fmt.Errorf("engine: nil strdist DB")
	}
	return &adapter{String, db.Len(), float64(db.Tau()), &stringBackend{db}}, nil
}

func (b *stringBackend) checkTau(requested *float64) error {
	return fixedTau(String, requested, float64(b.db.Tau()))
}

// options resolves the strdist options of one search. The paper finds
// l = min(3, τ+1) best for edit distance (§8.4); l = 1 is the Pivotal
// baseline.
func (b *stringBackend) options(opt Options) strdist.Options {
	l := chain(opt.ChainLength, min(3, b.db.Tau()+1))
	sopt := strdist.RingOptions(l)
	if l == 1 {
		sopt = strdist.PivotalOptions()
	}
	sopt.SkipVerify = opt.SkipVerify
	return sopt
}

func (b *stringBackend) searchRange(q Query, opt Options, lo, hi int, dst []int64) ([]int64, Stats, error) {
	var st strdist.Stats
	dst, err := b.db.SearchRangeAppend(q.str, b.options(opt), lo, hi, dst, &st)
	return dst, Stats{Candidates: st.Cand2 + st.Fallback, Results: st.Results, Probes: st.Probes, BoxChecks: st.BoxChecks}, err
}

// ladder is a single rung at the built τ: a Pivotal index cannot see
// further, and its candidates at τ are a superset for any smaller
// threshold, so the k nearest are the k smallest verified distances.
func (b *stringBackend) ladder(q Query, opt Options) ([]float64, rungFunc, error) {
	return []float64{float64(b.db.Tau())}, func(_ float64, h *resultHeap, st *Stats) error {
		ids, dists, bst, err := b.db.SearchDist(q.str, b.options(opt))
		if err != nil {
			return err
		}
		st.Candidates += bst.Cand2 + bst.Fallback
		st.Probes += bst.Probes
		st.BoxChecks += bst.BoxChecks
		pushDists(h, ids, dists)
		return nil
	}, nil
}

func (b *stringBackend) object(i int) Query { return StringQuery(b.db.String(i)) }

func (b *stringBackend) AppendSnapshot(sb *snapshot.Builder, prefix string) error {
	return b.db.AppendSnapshot(sb, prefix)
}

// --- Graph edit distance -----------------------------------------------------

type graphBackend struct{ db *graph.DB }

// NewGraph wraps a Pars/Ring GED DB. The threshold is fixed by the DB.
func NewGraph(db *graph.DB) (Index, error) { return plain(newGraph(db)) }

func newGraph(db *graph.DB) (*adapter, error) {
	if db == nil {
		return nil, fmt.Errorf("engine: nil graph DB")
	}
	return &adapter{Graph, db.Len(), float64(db.Tau()), &graphBackend{db}}, nil
}

func (b *graphBackend) checkTau(requested *float64) error {
	return fixedTau(Graph, requested, float64(b.db.Tau()))
}

// options resolves the graph options of one search. The paper finds l
// in [τ−2, τ] best for GED (§8.5); l = 1 is the Pars baseline.
func (b *graphBackend) options(opt Options) graph.Options {
	return graph.Options{
		ChainLength: chain(opt.ChainLength, max(1, b.db.Tau()-1)),
		SkipVerify:  opt.SkipVerify,
	}
}

func (b *graphBackend) searchRange(q Query, opt Options, lo, hi int, dst []int64) ([]int64, Stats, error) {
	var st graph.Stats
	dst, err := b.db.SearchRangeAppend(q.g, b.options(opt), lo, hi, dst, &st)
	return dst, Stats{Candidates: st.Candidates, Results: st.Results, BoxChecks: st.BoxChecks}, err
}

// ladder is a single rung at the built τ, as for strings: a Pars index
// cannot see further, and one filter pass at τ holds the k nearest.
func (b *graphBackend) ladder(q Query, opt Options) ([]float64, rungFunc, error) {
	return []float64{float64(b.db.Tau())}, func(_ float64, h *resultHeap, st *Stats) error {
		ids, dists, bst, err := b.db.SearchDist(q.g, b.options(opt))
		if err != nil {
			return err
		}
		st.Candidates += bst.Candidates
		st.BoxChecks += bst.BoxChecks
		pushDists(h, ids, dists)
		return nil
	}, nil
}

func (b *graphBackend) object(i int) Query { return GraphQuery(b.db.Graph(i)) }

func (b *graphBackend) AppendSnapshot(sb *snapshot.Builder, prefix string) error {
	return b.db.AppendSnapshot(sb, prefix)
}
