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
	"repro/internal/strdist"
)

// The four adapters wrap one backend DB each behind the Index
// interface. Chain-length 0 resolves to the paper's per-problem
// recommendation (§8), 1 to the pigeonhole baseline, ≥ 2 to the ring
// filter; every adapter clamps l into [1, m] exactly as the backends
// do.
//
// The backends run each search as one uninterruptible pass, so an
// adapter's cancellation points are the pass boundaries: on entry and
// between the Timings pre-pass and the main pass. Finer-grained
// cancellation comes from sharding, which turns one big pass into many
// small ones with a context check between dispatches.

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

// toIDs widens backend result ids to the engine's global id type.
func toIDs(ids []int) []int64 {
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[i] = int64(id)
	}
	return out
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

type hammingIndex struct {
	db  *hamming.DB
	tau int
}

// NewHamming wraps a Hamming DB with a default threshold. Hamming is
// the one backend whose index is threshold-independent, so searches
// may override τ per query.
func NewHamming(db *hamming.DB, defaultTau int) (Index, error) {
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
	return &hammingIndex{db: db, tau: defaultTau}, nil
}

func (ix *hammingIndex) Problem() Problem   { return Hamming }
func (ix *hammingIndex) Len() int           { return ix.db.Len() }
func (ix *hammingIndex) Tau() float64       { return float64(ix.tau) }
func (ix *hammingIndex) object(i int) Query { return VectorQuery(ix.db.Vector(i)) }

func (ix *hammingIndex) SearchSeq(ctx context.Context, q Query, opt Options) iter.Seq2[int64, error] {
	return collectSeq(ctx, ix, q, opt)
}

// resolveTau validates a per-query threshold override against the
// usual bounds (non-negative integer, at most the dimension — the
// threshold allocation is O(τ·m), so an absurd τ would pin a worker),
// falling back to def when unset.
func (ix *hammingIndex) resolveTau(requested *float64, def int) (int, error) {
	if requested == nil {
		return def, nil
	}
	if *requested != math.Trunc(*requested) || *requested < 0 {
		return 0, fmt.Errorf("engine: hamming threshold must be a non-negative integer, got τ=%v", *requested)
	}
	if *requested > float64(ix.db.Dim()) {
		return 0, fmt.Errorf("engine: hamming threshold τ=%v exceeds the vector dimension %d", *requested, ix.db.Dim())
	}
	return int(*requested), nil
}

// backendOptions resolves the hamming options of one search. The paper
// finds l = 6 best for Hamming search (§8.2).
func (ix *hammingIndex) backendOptions(opt Options) hamming.Options {
	hopt := hamming.RingOptions(chain(opt.ChainLength, 6))
	hopt.SkipVerify = opt.SkipVerify
	return hopt
}

// SearchTopK returns the Options.TopK nearest vectors by Hamming
// distance. Every rung is a full GPH/Ring search at the rung's τ —
// the index is threshold-independent — up to a ceiling of the vector
// dimension, or Options.Tau when set (results then stay within that
// radius). The index's default τ deliberately does not cap the
// ladder: a top-k query asks for the k nearest, not the k nearest
// within the threshold-search default.
func (ix *hammingIndex) SearchTopK(ctx context.Context, q Query, opt Options) ([]Result, Stats, error) {
	if err := checkKind(q, Hamming); err != nil {
		return nil, Stats{}, err
	}
	if err := validateTopK(opt); err != nil {
		return nil, Stats{}, err
	}
	ceil, err := ix.resolveTau(opt.Tau, ix.db.Dim())
	if err != nil {
		return nil, Stats{}, err
	}
	hopt := ix.backendOptions(opt)
	return runLadder(ctx, opt, topkLadder{
		bounds: intLadder(ceil),
		run: func(bound float64, h *resultHeap, st *Stats) error {
			ids, dists, bst, err := ix.db.SearchDist(q.vec, int(bound), hopt)
			if err != nil {
				return err
			}
			st.Candidates += bst.Candidates
			st.Probes += bst.Probes
			st.BoxChecks += bst.BoxChecks
			for i, id := range ids {
				h.push(int64(id), float64(dists[i]))
			}
			return nil
		},
	})
}

func (ix *hammingIndex) Search(ctx context.Context, q Query, opt Options) ([]int64, Stats, error) {
	if err := checkKind(q, Hamming); err != nil {
		return nil, Stats{}, err
	}
	tau, err := ix.resolveTau(opt.Tau, ix.tau)
	if err != nil {
		return nil, Stats{}, err
	}
	hopt := ix.backendOptions(opt)
	filterOnly := func() error {
		skip := hopt
		skip.SkipVerify = true
		var st hamming.Stats
		_, err := ix.db.SearchRangeAppend(q.vec, tau, skip, 0, ix.db.Len(), nil, &st)
		return err
	}
	return timed(ctx, opt, filterOnly, func() ([]int64, Stats, error) {
		// The append form over the whole corpus fills the engine's id
		// type directly: no []int result to widen, no threshold clone.
		var st hamming.Stats
		ids, err := ix.db.SearchRangeAppend(q.vec, tau, hopt, 0, ix.db.Len(), nil, &st)
		if err != nil {
			return nil, Stats{}, err
		}
		return ids, Stats{
			Candidates: st.Candidates,
			Results:    st.Results,
			Probes:     st.Probes,
			BoxChecks:  st.BoxChecks,
		}, nil
	})
}

// --- Set similarity ----------------------------------------------------------

type setIndex struct {
	db *setsim.PKWiseDB
}

// NewSet wraps a pkwise/Ring set similarity DB. The threshold and
// measure are fixed by the DB's Config.
func NewSet(db *setsim.PKWiseDB) (Index, error) {
	if db == nil {
		return nil, fmt.Errorf("engine: nil setsim DB")
	}
	return &setIndex{db: db}, nil
}

func (ix *setIndex) Problem() Problem   { return Set }
func (ix *setIndex) Len() int           { return ix.db.Len() }
func (ix *setIndex) Tau() float64       { return ix.db.Config().Tau }
func (ix *setIndex) object(i int) Query { return SetQuery(ix.db.Set(i)) }

func (ix *setIndex) SearchSeq(ctx context.Context, q Query, opt Options) iter.Seq2[int64, error] {
	return collectSeq(ctx, ix, q, opt)
}

// chainLength resolves the chain length of one search. The paper finds
// l = 2 best for set similarity search (§8.3); l = 1 is pkwise, and
// SkipVerify is a plain argument of the setsim entry points.
func (ix *setIndex) chainLength(opt Options) int {
	return chain(opt.ChainLength, 2)
}

// SearchTopK returns the Options.TopK most similar sets as distances:
// 1−J(x,q) under the Jaccard measure, −|x∩q| under Overlap, so
// "nearest" is always "smallest". The ladder is a single rung at the
// built τ — the pkwise index cannot see below its similarity
// threshold, and verification (one exact overlap count) costs the
// same at any threshold, so there is nothing for lower rungs to save.
func (ix *setIndex) SearchTopK(ctx context.Context, q Query, opt Options) ([]Result, Stats, error) {
	if err := checkKind(q, Set); err != nil {
		return nil, Stats{}, err
	}
	if err := validateTopK(opt); err != nil {
		return nil, Stats{}, err
	}
	if err := fixedTau(Set, opt.Tau, ix.Tau()); err != nil {
		return nil, Stats{}, err
	}
	l := ix.chainLength(opt)
	jaccard := ix.db.Config().Measure == setsim.Jaccard
	return runLadder(ctx, opt, topkLadder{
		bounds: []float64{ix.Tau()},
		run: func(_ float64, h *resultHeap, st *Stats) error {
			ids, sims, bst, err := ix.db.SearchSim(q.set, l)
			if err != nil {
				return err
			}
			st.Candidates += bst.Candidates
			st.Probes += bst.Probes
			st.BoxChecks += bst.BoxChecks
			for i, id := range ids {
				d := -sims[i]
				if jaccard {
					d = 1 - sims[i]
				}
				h.push(int64(id), d)
			}
			return nil
		},
	})
}

func (ix *setIndex) Search(ctx context.Context, q Query, opt Options) ([]int64, Stats, error) {
	if err := checkKind(q, Set); err != nil {
		return nil, Stats{}, err
	}
	if err := fixedTau(Set, opt.Tau, ix.Tau()); err != nil {
		return nil, Stats{}, err
	}
	l := ix.chainLength(opt)
	n := ix.db.Len()
	filterOnly := func() error {
		var st setsim.Stats
		_, err := ix.db.SearchRangeAppend(q.set, l, true, 0, n, nil, &st)
		return err
	}
	return timed(ctx, opt, filterOnly, func() ([]int64, Stats, error) {
		// The append form over the whole corpus fills the engine's id
		// type directly: no []int result to widen.
		var st setsim.Stats
		ids, err := ix.db.SearchRangeAppend(q.set, l, opt.SkipVerify, 0, n, nil, &st)
		if err != nil {
			return nil, Stats{}, err
		}
		return ids, Stats{
			Candidates: st.Candidates,
			Results:    st.Results,
			Probes:     st.Probes,
			BoxChecks:  st.BoxChecks,
		}, nil
	})
}

// --- Edit distance -----------------------------------------------------------

type stringIndex struct {
	db *strdist.DB
}

// NewString wraps a Pivotal/Ring edit distance DB. The threshold is
// fixed by the DB.
func NewString(db *strdist.DB) (Index, error) {
	if db == nil {
		return nil, fmt.Errorf("engine: nil strdist DB")
	}
	return &stringIndex{db: db}, nil
}

func (ix *stringIndex) Problem() Problem   { return String }
func (ix *stringIndex) Len() int           { return ix.db.Len() }
func (ix *stringIndex) Tau() float64       { return float64(ix.db.Tau()) }
func (ix *stringIndex) object(i int) Query { return StringQuery(ix.db.String(i)) }

func (ix *stringIndex) SearchSeq(ctx context.Context, q Query, opt Options) iter.Seq2[int64, error] {
	return collectSeq(ctx, ix, q, opt)
}

// backendOptions resolves the strdist options of one search. The paper
// finds l = min(3, τ+1) best for edit distance (§8.4); l = 1 is the
// Pivotal baseline.
func (ix *stringIndex) backendOptions(opt Options) strdist.Options {
	l := chain(opt.ChainLength, min(3, ix.db.Tau()+1))
	sopt := strdist.RingOptions(l)
	if l == 1 {
		sopt = strdist.PivotalOptions()
	}
	sopt.SkipVerify = opt.SkipVerify
	return sopt
}

// SearchTopK returns the Options.TopK nearest strings by edit
// distance within the index's built τ (a Pivotal index cannot see
// further). Every rung filters at the built τ and tightens only the
// verification threshold (strdist.Options.VerifyTau), so early rungs
// pay the full filter but a much cheaper banded verification.
func (ix *stringIndex) SearchTopK(ctx context.Context, q Query, opt Options) ([]Result, Stats, error) {
	if err := checkKind(q, String); err != nil {
		return nil, Stats{}, err
	}
	if err := validateTopK(opt); err != nil {
		return nil, Stats{}, err
	}
	if err := fixedTau(String, opt.Tau, ix.Tau()); err != nil {
		return nil, Stats{}, err
	}
	sopt := ix.backendOptions(opt)
	return runLadder(ctx, opt, topkLadder{
		bounds: intLadder(ix.db.Tau()),
		run: func(bound float64, h *resultHeap, st *Stats) error {
			ropt := sopt
			ropt.VerifyTau = int(bound)
			ids, dists, bst, err := ix.db.SearchDist(q.str, ropt)
			if err != nil {
				return err
			}
			st.Candidates += bst.Cand2 + bst.Fallback
			st.Probes += bst.Probes
			st.BoxChecks += bst.BoxChecks
			for i, id := range ids {
				h.push(int64(id), float64(dists[i]))
			}
			return nil
		},
	})
}

func (ix *stringIndex) Search(ctx context.Context, q Query, opt Options) ([]int64, Stats, error) {
	if err := checkKind(q, String); err != nil {
		return nil, Stats{}, err
	}
	if err := fixedTau(String, opt.Tau, ix.Tau()); err != nil {
		return nil, Stats{}, err
	}
	sopt := ix.backendOptions(opt)
	filterOnly := func() error {
		skip := sopt
		skip.SkipVerify = true
		_, _, err := ix.db.Search(q.str, skip)
		return err
	}
	return timed(ctx, opt, filterOnly, func() ([]int64, Stats, error) {
		ids, st, err := ix.db.Search(q.str, sopt)
		if err != nil {
			return nil, Stats{}, err
		}
		return toIDs(ids), Stats{
			Candidates: st.Cand2 + st.Fallback,
			Results:    st.Results,
			Probes:     st.Probes,
			BoxChecks:  st.BoxChecks,
		}, nil
	})
}

// --- Graph edit distance -----------------------------------------------------

type graphIndex struct {
	db *graph.DB
}

// NewGraph wraps a Pars/Ring GED DB. The threshold is fixed by the DB.
func NewGraph(db *graph.DB) (Index, error) {
	if db == nil {
		return nil, fmt.Errorf("engine: nil graph DB")
	}
	return &graphIndex{db: db}, nil
}

func (ix *graphIndex) Problem() Problem   { return Graph }
func (ix *graphIndex) Len() int           { return ix.db.Len() }
func (ix *graphIndex) Tau() float64       { return float64(ix.db.Tau()) }
func (ix *graphIndex) object(i int) Query { return GraphQuery(ix.db.Graph(i)) }

func (ix *graphIndex) SearchSeq(ctx context.Context, q Query, opt Options) iter.Seq2[int64, error] {
	return collectSeq(ctx, ix, q, opt)
}

// backendOptions resolves the graph options of one search. The paper
// finds l in [τ−2, τ] best for GED (§8.5); l = 1 is the Pars baseline.
func (ix *graphIndex) backendOptions(opt Options) graph.Options {
	l := chain(opt.ChainLength, max(1, ix.db.Tau()-1))
	gopt := graph.RingOptions(l)
	if l == 1 {
		gopt = graph.ParsOptions()
	}
	gopt.SkipVerify = opt.SkipVerify
	return gopt
}

// SearchTopK returns the Options.TopK nearest graphs by GED within the
// index's built τ (a Pars index cannot see further). Every rung
// filters at the built τ and tightens only the verification budget
// (graph.Options.VerifyTau) — GED verification dominates graph search
// cost and early-abandons far sooner at a small budget, so the cheap
// low rungs usually answer the query without ever paying a full-τ
// verification pass.
func (ix *graphIndex) SearchTopK(ctx context.Context, q Query, opt Options) ([]Result, Stats, error) {
	if err := checkKind(q, Graph); err != nil {
		return nil, Stats{}, err
	}
	if err := validateTopK(opt); err != nil {
		return nil, Stats{}, err
	}
	if err := fixedTau(Graph, opt.Tau, ix.Tau()); err != nil {
		return nil, Stats{}, err
	}
	gopt := ix.backendOptions(opt)
	return runLadder(ctx, opt, topkLadder{
		bounds: intLadder(ix.db.Tau()),
		run: func(bound float64, h *resultHeap, st *Stats) error {
			ropt := gopt
			ropt.VerifyTau = int(bound)
			ids, dists, bst, err := ix.db.SearchDist(q.g, ropt)
			if err != nil {
				return err
			}
			st.Candidates += bst.Candidates
			st.BoxChecks += bst.BoxChecks
			for i, id := range ids {
				h.push(int64(id), float64(dists[i]))
			}
			return nil
		},
	})
}

func (ix *graphIndex) Search(ctx context.Context, q Query, opt Options) ([]int64, Stats, error) {
	if err := checkKind(q, Graph); err != nil {
		return nil, Stats{}, err
	}
	if err := fixedTau(Graph, opt.Tau, ix.Tau()); err != nil {
		return nil, Stats{}, err
	}
	gopt := ix.backendOptions(opt)
	filterOnly := func() error {
		skip := gopt
		skip.SkipVerify = true
		_, _, err := ix.db.Search(q.g, skip)
		return err
	}
	return timed(ctx, opt, filterOnly, func() ([]int64, Stats, error) {
		// SearchIDs64 widens inside the backend's one detach copy; the
		// former Search-then-toIDs epilogue was the second of the two
		// allocations a graph search paid.
		ids, st, err := ix.db.SearchIDs64(q.g, gopt)
		if err != nil {
			return nil, Stats{}, err
		}
		return ids, Stats{
			Candidates: st.Candidates,
			Results:    st.Results,
			BoxChecks:  st.BoxChecks,
		}, nil
	})
}
