// Package engine is the unified serving layer over the four τ-selection
// search systems of the pigeonring reproduction. Each problem package
// (hamming, setsim, strdist, graph) exposes its own NewDB/Search pair
// with problem-specific types; engine wraps them behind one Index
// interface with a typed Query encoding, so callers — the pigeonringd
// query server above all — can load, shard and query any backend
// uniformly.
//
// One unexported adapter implements Index — search, top-k, join and
// snapshot writing — for all four problems. What differs per problem
// sits behind a small unexported backend interface (adapters.go): τ
// validation, one exact range probe that resolves the paper's §8
// chain length, the top-k ladder, object replay and persistence.
// Search and every join row run that same range probe, so a fifth
// problem implements the backend methods and nothing else.
//
// The layer adds what the single-problem packages deliberately leave
// out:
//
//   - Context-aware search: every Search takes a context.Context, so
//     a serving system can abandon wasted verification work when a
//     client disconnects or a deadline expires. Cancellation is
//     checked between search passes and, on a sharded index, between
//     shard dispatches; a single backend pass is the unit of
//     non-interruptible work, so deployments wanting prompt
//     cancellation shard their indexes.
//   - Early termination: Options.Limit stops a search after the first
//     k ascending ids; a sharded index abandons shards that can no
//     longer contribute to the first k.
//   - Sharded: a composite Index that partitions the database into N
//     contiguous shards, fans every query out across a worker pool
//     (parallel.ForEachCtx), and merges per-shard Stats into an
//     aggregate. Because every shard holds a contiguous id range and
//     every backend returns exact, ascending results, concatenating the
//     shard outputs reproduces the unsharded result id-for-id.
//   - SearchBatch: cross-query parallelism over any Index, cancelling
//     undispatched queries when the context fails.
//   - Joins: every Index answers Join — the all-pairs self-join behind
//     dedup and entity resolution — by a 2-D upper-triangle tile
//     decomposition of the pair space over the same worker pool (each
//     tile probes one id range against another through reusable
//     per-tile scratch),
//     context-cancellable and limit-aware like a search. Sharded joins
//     are pair-for-pair identical to unsharded ones.
//   - Stats: a common work/timing report with per-shard breakdown,
//     join counters (Pairs, JoinTiles) and optional filter/verify
//     time split.
//
// All indexes are immutable after construction and every Search keeps
// its scratch per call, so a single Index may serve any number of
// goroutines concurrently without locking.
package engine

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/bitvec"
	"repro/internal/graph"
	"repro/internal/tokenset"
)

// Problem identifies one of the four τ-selection search problems.
type Problem string

const (
	// Hamming is thresholded Hamming distance search over binary
	// vectors (GPH baseline, Ring upgrade).
	Hamming Problem = "hamming"
	// Set is thresholded set similarity search (pkwise baseline, Ring
	// upgrade).
	Set Problem = "set"
	// String is thresholded edit distance search (Pivotal baseline,
	// Ring upgrade).
	String Problem = "string"
	// Graph is thresholded graph edit distance search (Pars baseline,
	// Ring upgrade).
	Graph Problem = "graph"
)

// ParseProblem maps a user-supplied name to a Problem. Matching is
// case-insensitive and ignores surrounding whitespace.
func ParseProblem(s string) (Problem, error) {
	switch p := Problem(strings.ToLower(strings.TrimSpace(s))); p {
	case Hamming, Set, String, Graph:
		return p, nil
	}
	return "", fmt.Errorf("engine: unknown problem %q (valid names: hamming, set, string, graph)", s)
}

// Query is the typed query encoding shared by every backend: exactly
// one payload is set, and its kind must match the index's Problem.
// Construct queries with VectorQuery, SetQuery, StringQuery or
// GraphQuery.
type Query struct {
	kind Problem
	vec  bitvec.Vector
	set  tokenset.Set
	str  string
	g    *graph.Graph
}

// VectorQuery wraps a binary vector for a Hamming index.
func VectorQuery(v bitvec.Vector) Query { return Query{kind: Hamming, vec: v} }

// SetQuery wraps a token set for a Set index.
func SetQuery(s tokenset.Set) Query { return Query{kind: Set, set: s} }

// StringQuery wraps a string for a String index.
func StringQuery(s string) Query { return Query{kind: String, str: s} }

// GraphQuery wraps a graph for a Graph index.
func GraphQuery(g *graph.Graph) Query { return Query{kind: Graph, g: g} }

// Kind returns the problem the query addresses.
func (q Query) Kind() Problem { return q.kind }

// Vector returns the Hamming payload.
func (q Query) Vector() bitvec.Vector { return q.vec }

// Set returns the set similarity payload.
func (q Query) Set() tokenset.Set { return q.set }

// Text returns the edit distance payload. (It is not named String so
// Query does not accidentally implement fmt.Stringer and print a lone
// payload field.)
func (q Query) Text() string { return q.str }

// Graph returns the graph edit distance payload.
func (q Query) Graph() *graph.Graph { return q.g }

// Options tune a single engine search. The zero value asks for the
// index defaults: its build-time τ, the paper's recommended chain
// length, and no result limit.
type Options struct {
	// Tau overrides the threshold when non-nil (nil keeps the index
	// default; a pointer distinguishes an explicit τ=0 — exact-match
	// search — from "unset"). Only Hamming indexes support per-query
	// thresholds; the other three are built for a fixed τ and reject
	// any other value.
	Tau *float64
	// ChainLength is the pigeonring chain length l. 0 selects the
	// paper's per-problem recommendation; 1 runs the pigeonhole
	// baseline (GPH, pkwise, Pivotal, Pars); l ≥ 2 enables the ring
	// filter.
	ChainLength int
	// Limit, when > 0, stops the search after the first Limit results
	// in ascending id order — the returned ids are exactly the first
	// min(Limit, total) ids of the unlimited search. A sharded index
	// abandons shards that can no longer contribute to the first Limit
	// ids; Stats.Limited reports whether any results were cut off.
	// ≤ 0 means unlimited.
	Limit int
	// TopK, when > 0, asks for the k nearest objects instead of
	// everything within τ; it is answered by Index.SearchTopK, which
	// returns Result{ID, Distance} pairs ordered by (Distance, ID)
	// ascending. A Hamming index runs the ring filter at an expanding τ
	// ladder, and Tau caps the ladder: results stay within that radius.
	// The string, graph and set indexes answer in one pass at their
	// built τ. Search rejects a TopK option, and TopK is mutually
	// exclusive with Limit and SkipVerify (validateTopK).
	TopK int
	// SkipVerify stops after candidate generation; Stats are filled
	// but no results are returned.
	SkipVerify bool
	// Hooks, when non-nil, receives span notifications as the search
	// progresses: per-query stage durations and, on a sharded index,
	// per-shard fan-out legs. The nil default costs one pointer check;
	// see the Hooks type for the callback contract.
	Hooks *Hooks
}

// Index is the uniform search interface. It is closed: the plain
// adapter and the Sharded composite over adapters are its only
// implementations, so every Index answers top-k searches and
// self-joins, replays its objects and answers range-restricted
// searches. Implementations are immutable and safe for concurrent use.
type Index interface {
	// Problem returns the query kind the index answers.
	Problem() Problem
	// Len returns the number of indexed objects.
	Len() int
	// Tau returns the index's default threshold.
	Tau() float64
	// Search returns the ids of all objects within the threshold of q,
	// in ascending order, along with search statistics. It returns
	// ctx.Err() when the context fails before the search completes; a
	// single backend pass is the unit of non-interruptible work, so a
	// plain adapter checks the context between passes while a sharded
	// index additionally stops dispatching shards.
	Search(ctx context.Context, q Query, opt Options) ([]int64, Stats, error)
	TopKSearcher
	Joiner

	// searchRange is the checked range probe behind every join row,
	// JoinTileRange's included: the ids in the global range [lo, hi) within
	// threshold of q, appended to dst in ascending order, with the
	// work counters added to st. The range may straddle shards.
	searchRange(ctx context.Context, q Query, opt Options, lo, hi int, dst []int64, st *Stats) ([]int64, error)
	// object returns the indexed object with global id i, which the
	// caller has checked lies in [0, Len()), as a query.
	object(i int) Query
}

// Tau wraps a threshold value for Options.Tau.
func Tau(v float64) *float64 { return &v }

// checkKind validates that a query addresses the given problem.
func checkKind(q Query, p Problem) error {
	if q.kind == "" {
		return fmt.Errorf("engine: empty query (use VectorQuery/SetQuery/StringQuery/GraphQuery)")
	}
	if q.kind != p {
		return fmt.Errorf("engine: %s query sent to %s index", q.kind, p)
	}
	return nil
}
