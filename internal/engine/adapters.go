package engine

import (
	"context"
	"fmt"
	"iter"
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
// the range probe over [0, n), SearchRange and every join row are the
// same probe over a window, and top-k climbs the backend's ladder.
//
// A fifth problem implements backend:
//
//   - checkTau: reject a per-query τ the index cannot answer (fixedTau
//     for an index built for one τ).
//   - searchRange: the exact range probe. It resolves chain length 0
//     to the paper's per-problem recommendation (§8), 1 to the
//     pigeonhole baseline and ≥ 2 to the ring filter, honors
//     SkipVerify, and clamps l into [1, m] as the backends do.
//   - topkBounds and topkRung: the top-k ladder (topk.go).
//   - object and AppendSnapshot: replay an indexed object as a query,
//     persist the index.
//
// A backend pass is uninterruptible, so an adapter's cancellation
// points are the pass boundaries: on entry and between the Timings
// pre-pass and the main pass. Finer-grained cancellation comes from
// sharding, which turns one big pass into many small ones with a
// context check between dispatches.

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
	// topkBounds returns the ascending rung bounds of the top-k
	// ladder, ending at the backend's ceiling.
	topkBounds(opt Options) []float64
	// topkRung answers {x : d(x, q) ≤ bound}, pushing every verified
	// hit into h and adding the work counters to st.
	topkRung(q Query, opt Options, bound float64, h *resultHeap, st *Stats) error
	// object returns indexed object i as a query.
	object(i int) Query
	// AppendSnapshot adds the index's sections to b under prefix.
	AppendSnapshot(b *snapshot.Builder, prefix string) error
}

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
	filterOnly := func() error {
		skip := opt
		skip.SkipVerify = true
		_, _, err := a.b.searchRange(q, skip, 0, a.n, nil)
		return err
	}
	return timed(ctx, opt, filterOnly, func() ([]int64, Stats, error) {
		return a.b.searchRange(q, opt, 0, a.n, nil)
	})
}

func (a *adapter) SearchSeq(ctx context.Context, q Query, opt Options) iter.Seq2[int64, error] {
	return collectSeq(ctx, a, q, opt)
}

// SearchTopK returns the Options.TopK nearest objects by climbing the
// backend's τ ladder (see topk.go for each backend's shape).
func (a *adapter) SearchTopK(ctx context.Context, q Query, opt Options) ([]Result, Stats, error) {
	if err := checkKind(q, a.problem); err != nil {
		return nil, Stats{}, err
	}
	if err := validateTopK(opt); err != nil {
		return nil, Stats{}, err
	}
	if err := a.b.checkTau(opt.Tau); err != nil {
		return nil, Stats{}, err
	}
	return runLadder(ctx, opt, topkLadder{
		bounds: a.b.topkBounds(opt),
		run: func(bound float64, h *resultHeap, st *Stats) error {
			return a.b.topkRung(q, opt, bound, h, st)
		},
	})
}

// object replays indexed object i through the backend.
func (a *adapter) object(i int) Query { return a.b.object(i) }

// searchRange is the checked range probe behind SearchRange and every
// join row: ids in [lo, hi) appended to dst, counters added to st.
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
	st.merge(bst)
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
// the context is checked at every pass boundary, and Limit truncates
// the ascending result list. When timings are requested it first
// re-runs candidate generation alone via filterOnly to observe the
// filter/verify split the backends interleave.
func timed(ctx context.Context, opt Options, filterOnly func() error, fn func() ([]int64, Stats, error)) ([]int64, Stats, error) {
	if opt.TopK > 0 {
		// Silently ignoring k would hand back an unranked, unbounded id
		// list where the caller asked for the k nearest.
		return nil, Stats{}, errTopKViaSearch
	}
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	wallStart := time.Now()
	var filterNS int64
	if opt.Timings && !opt.SkipVerify {
		start := time.Now()
		if err := filterOnly(); err != nil {
			return nil, Stats{}, err
		}
		filterNS = time.Since(start).Nanoseconds()
		if err := ctx.Err(); err != nil {
			return nil, Stats{}, err
		}
	}
	fullStart := time.Now()
	ids, st, err := fn()
	if err != nil {
		return nil, Stats{}, err
	}
	full := time.Since(fullStart).Nanoseconds()
	if opt.Limit > 0 && len(ids) > opt.Limit {
		ids = ids[:opt.Limit]
		st.Limited = true
		st.Results = len(ids)
	}
	// Wall/total cover the whole call, measurement pre-pass included,
	// so the reported times match what a caller actually waited.
	wall := time.Since(wallStart).Nanoseconds()
	st.TotalNS, st.WallNS = wall, wall
	if opt.Timings {
		// The filter share is measured in a separate pass, so clock
		// noise can push it past the full pass; clamp to keep the
		// reported split internally consistent.
		if opt.SkipVerify || filterNS > full {
			filterNS = full
		}
		st.FilterNS = filterNS
		st.VerifyNS = full - filterNS
		opt.Hooks.stage(StageFilter, time.Duration(st.FilterNS))
		opt.Hooks.stage(StageVerify, time.Duration(st.VerifyNS))
	}
	opt.Hooks.stage(StageSearch, time.Duration(full))
	return ids, st, err
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

// topkBounds climbs a real τ ladder — the index is threshold-
// independent — up to the vector dimension, or Options.Tau when set
// (results then stay within that radius). The index's default τ
// deliberately does not cap the ladder: a top-k query asks for the k
// nearest, not the k nearest within the threshold-search default.
func (b *hammingBackend) topkBounds(opt Options) []float64 {
	if opt.Tau != nil {
		return intLadder(int(*opt.Tau))
	}
	return intLadder(b.db.Dim())
}

func (b *hammingBackend) topkRung(q Query, opt Options, bound float64, h *resultHeap, st *Stats) error {
	ids, dists, bst, err := b.db.SearchDist(q.vec, int(bound), b.options(opt))
	if err != nil {
		return err
	}
	st.Candidates += bst.Candidates
	st.Probes += bst.Probes
	st.BoxChecks += bst.BoxChecks
	pushDists(h, ids, dists)
	return nil
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

// topkBounds is a single rung at the built τ: the pkwise index cannot
// see below its similarity threshold, and verification (one exact
// overlap count) costs the same at any threshold.
func (b *setBackend) topkBounds(Options) []float64 { return []float64{b.db.Config().Tau} }

// topkRung maps similarity onto a distance so "nearest" is always
// "smallest": 1−J(x,q) under the Jaccard measure, −|x∩q| under Overlap.
func (b *setBackend) topkRung(q Query, opt Options, _ float64, h *resultHeap, st *Stats) error {
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

// topkBounds caps the ladder at the built τ (a Pivotal index cannot
// see further). Every rung filters at the built τ and tightens only
// the verification threshold (strdist.Options.VerifyTau), so early
// rungs pay the full filter but a much cheaper banded verification.
func (b *stringBackend) topkBounds(Options) []float64 { return intLadder(b.db.Tau()) }

func (b *stringBackend) topkRung(q Query, opt Options, bound float64, h *resultHeap, st *Stats) error {
	sopt := b.options(opt)
	sopt.VerifyTau = int(bound)
	ids, dists, bst, err := b.db.SearchDist(q.str, sopt)
	if err != nil {
		return err
	}
	st.Candidates += bst.Cand2 + bst.Fallback
	st.Probes += bst.Probes
	st.BoxChecks += bst.BoxChecks
	pushDists(h, ids, dists)
	return nil
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
	l := chain(opt.ChainLength, max(1, b.db.Tau()-1))
	gopt := graph.RingOptions(l)
	if l == 1 {
		gopt = graph.ParsOptions()
	}
	gopt.SkipVerify = opt.SkipVerify
	return gopt
}

func (b *graphBackend) searchRange(q Query, opt Options, lo, hi int, dst []int64) ([]int64, Stats, error) {
	var st graph.Stats
	dst, err := b.db.SearchRangeAppend(q.g, b.options(opt), lo, hi, dst, &st)
	return dst, Stats{Candidates: st.Candidates, Results: st.Results, BoxChecks: st.BoxChecks}, err
}

// topkBounds caps the ladder at the built τ (a Pars index cannot see
// further). Every rung filters at the built τ and tightens only the
// verification budget (graph.Options.VerifyTau) — GED verification
// dominates graph search cost and early-abandons far sooner at a small
// budget, so the cheap low rungs usually answer the query without ever
// paying a full-τ verification pass.
func (b *graphBackend) topkBounds(Options) []float64 { return intLadder(b.db.Tau()) }

func (b *graphBackend) topkRung(q Query, opt Options, bound float64, h *resultHeap, st *Stats) error {
	gopt := b.options(opt)
	gopt.VerifyTau = int(bound)
	ids, dists, bst, err := b.db.SearchDist(q.g, gopt)
	if err != nil {
		return err
	}
	st.Candidates += bst.Candidates
	st.BoxChecks += bst.BoxChecks
	pushDists(h, ids, dists)
	return nil
}

func (b *graphBackend) object(i int) Query { return GraphQuery(b.db.Graph(i)) }

func (b *graphBackend) AppendSnapshot(sb *snapshot.Builder, prefix string) error {
	return b.db.AppendSnapshot(sb, prefix)
}
