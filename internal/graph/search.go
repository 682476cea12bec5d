package graph

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/pairs"
)

// Options configure a GED search.
type Options struct {
	// ChainLength is the pigeonring chain length l, clamped into
	// [1, τ+1]. l = 1 (or 0) is the Pars partition filter: some part
	// must embed into the query. The paper finds l in [τ−2, τ] best.
	ChainLength int
	// SkipVerify stops after the partition/ring filter: candidates are
	// counted but not verified and no results are returned (the
	// "Cand." series of the paper's time plots).
	SkipVerify bool
}

// ParsOptions returns the configuration of the Pars baseline.
func ParsOptions() Options { return Options{} }

// RingOptions returns the pigeonring configuration with chain length l.
func RingOptions(l int) Options { return Options{ChainLength: l} }

// Stats reports the work a search performed.
type Stats struct {
	// Candidates is the number of graphs that reached GED verification:
	// graphs that pass the whole-graph screen and then a chain.
	Candidates int
	// Results is the number of graphs with ged(x, q) ≤ τ.
	Results int
	// BoxChecks counts box evaluations: one label-screen bound each,
	// plus a sub-isomorphism test for a budget-0 box the bound
	// leaves at 0. Only graphs that pass the whole-graph screen have
	// their parts tried as heads, in order, until one chain passes.
	BoxChecks int
}

// partitioner splits the vertices of g into m disjoint groups (some may
// be empty). Tests plug in hand-made partitions to reproduce the
// paper's examples; every other DB uses BFSPartitioner, which is what
// lets a snapshot store the graphs alone and rebuild the parts on open.
type partitioner func(g *Graph, m int) [][]int

// BFSPartitioner is the default: vertices in BFS order (components
// appended) sliced into m nearly equal contiguous chunks, which keeps
// parts as connected as the graph allows.
func BFSPartitioner(g *Graph, m int) [][]int {
	// order doubles as the BFS queue: vertices leave it in the order
	// they entered.
	order := make([]int, 0, g.n)
	seen := make([]bool, g.n)
	for start := 0; start < g.n; start++ {
		if seen[start] {
			continue
		}
		seen[start] = true
		order = append(order, start)
		for head := len(order) - 1; head < len(order); head++ {
			v := order[head]
			for u, l := range g.elab[v*g.n : (v+1)*g.n] {
				if l >= 0 && !seen[u] {
					seen[u] = true
					order = append(order, u)
				}
			}
		}
	}
	parts := make([][]int, m)
	base, rem := g.n/m, g.n%m
	pos := 0
	for i := 0; i < m; i++ {
		w := base
		if i < rem {
			w++
		}
		parts[i] = order[pos : pos+w]
		pos += w
	}
	return parts
}

// DB is a GED search index built for a fixed threshold τ: every data
// graph is pre-partitioned into m = τ+1 vertex-induced parts. Part
// p = id·m + i is parts[p], its vertices stored in match order so the
// box screen's sub-isomorphism test starts without ordering them; the
// parts' label, adjacency and degree slices are carved out of three
// arenas.
type DB struct {
	tau    int
	graphs []*Graph
	// sizes holds graph id's vertex and edge counts at 2·id and
	// 2·id+1, so the screen's size bound reads 8 B per graph and never
	// dereferences the *Graph.
	sizes []int32
	parts []Graph
	sigs  partSigs
	// scratch pools per-search kernel state and result buffers so a
	// search stays allocation-free across calls.
	scratch sync.Pool
}

// searchScratch is the per-search working memory a DB hands out from
// its pool: the result buffer, one kernel scratch that serves every
// sub-isomorphism test and GED verification of the query, and the
// query's label counts over the DB's label dictionaries, which both
// the box screen and GED's label bound read.
type searchScratch struct {
	results []int
	// dists holds the verified GED of each entry of results, populated
	// only on the SearchDist path.
	dists []int
	ks    *kernelScratch
	qv    []int32 // query vertex-label counts by dictionary id, then Wildcards
	qe    []int32 // query edge-label counts, indexed by dictionary id
}

func (db *DB) putScratch(s *searchScratch) {
	s.results = s.results[:0]
	s.dists = s.dists[:0]
	db.scratch.Put(s)
}

// MaxTau bounds the threshold a DB is built for: every graph is split
// into τ+1 parts, so τ is an allocation size. NewDB and OpenSnapshotAt
// share the bound, so any DB that can be written can be reopened.
const MaxTau = 1024

// NewDB partitions every graph with BFSPartitioner. τ must lie in
// [0, MaxTau], no graph may have more than MaxVertices vertices, and
// there may be at most MaxInt32 parts, len(graphs)·(τ+1): the refusal
// bounds the part arrays before any graph is read.
func NewDB(graphs []*Graph, tau int) (*DB, error) {
	return newDBWithPartitioner(graphs, tau, BFSPartitioner)
}

// newDBWithPartitioner partitions every graph with the supplied
// partitioner (must produce exactly τ+1 disjoint groups covering all
// vertices).
func newDBWithPartitioner(graphs []*Graph, tau int, part partitioner) (*DB, error) {
	if tau < 0 || tau > MaxTau {
		return nil, fmt.Errorf("graph: threshold %d outside [0, %d]", tau, MaxTau)
	}
	m := tau + 1
	if int64(len(graphs))*int64(m) > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d graphs × %d parts exceed %d parts", len(graphs), m, math.MaxInt32)
	}
	db := &DB{
		tau:    tau,
		graphs: graphs,
		sizes:  make([]int32, 2*len(graphs)),
		parts:  make([]Graph, len(graphs)*m),
	}
	// Partition every graph first, so the part arenas are sized exactly.
	groups := make([][][]int, len(graphs))
	nv, cells := 0, 0
	for id, g := range graphs {
		if g.n > MaxVertices {
			return nil, fmt.Errorf("graph: graph %d has %d vertices, more than %d", id, g.n, MaxVertices)
		}
		gs := part(g, m)
		if len(gs) != m {
			return nil, fmt.Errorf("graph: partitioner returned %d groups, want %d", len(gs), m)
		}
		groups[id] = gs
		covered := 0
		for _, vs := range gs {
			covered += len(vs)
			cells += len(vs) * len(vs)
		}
		if covered != g.N() {
			return nil, fmt.Errorf("graph: partition of graph %d covers %d of %d vertices", id, covered, g.N())
		}
		nv += covered
		db.sizes[2*id], db.sizes[2*id+1] = int32(g.n), int32(g.e)
	}
	vlab, elab, deg := make([]int32, nv), make([]int32, cells), make([]int, nv)
	ks := new(kernelScratch)
	for id, g := range graphs {
		for i, vs := range groups[id] {
			n := len(vs)
			p := &db.parts[id*m+i]
			*p = Graph{n: n, vlab: vlab[:n:n], elab: elab[: n*n : n*n], deg: deg[:n:n]}
			vlab, elab, deg = vlab[n:], elab[n*n:], deg[n:]
			g.induceInto(p, ks.matchOrder(g, vs))
		}
	}
	db.sigs = buildPartSigs(graphs, db.parts)
	db.scratch.New = func() any {
		return &searchScratch{ks: new(kernelScratch)}
	}
	return db, nil
}

// Len returns the number of indexed graphs.
func (db *DB) Len() int { return len(db.graphs) }

// Tau returns the threshold the index was built for.
func (db *DB) Tau() int { return db.tau }

// Graph returns the indexed graph with the given id.
func (db *DB) Graph(id int) *Graph { return db.graphs[id] }

// box returns a lower bound on graph id's box i, resolved up to
// budget: the label screen's bound, or, at budget 0, exactly 0 when the
// part embeds into q and 1 when it does not. Values above budget read
// budget+1 ("more than budget"). Each call counts one BoxCheck.
func (db *DB) box(s *searchScratch, id, i, budget int, q *Graph, st *Stats) int {
	st.BoxChecks++
	p := id*(db.tau+1) + i
	part := &db.parts[p]
	v := db.sigs.bound(p, part.n, q.n, s.qv, s.qe)
	if budget == 0 && v == 0 && !s.ks.embeds(part, q) {
		v = 1
	}
	return min(v, budget+1)
}

// Search returns the ids of all graphs with ged(x, q) ≤ τ, ascending.
//
// The ring filter follows §6.4 and Example 12 of the paper: every
// prefix-viable chain must start at a part that embeds into q (the
// quota of a 1-prefix is τ/(τ+1) < 1), and each subsequent box takes
// the label screen's lower bound against the budget the chain has
// left, ⌊l'·τ/m − consumed⌋; a box with no budget left must embed too.
func (db *DB) Search(q *Graph, opt Options) ([]int, Stats, error) {
	s, st := db.search(q, opt, 0, len(db.graphs), false)
	out := pairs.SortedIDs(s.results)
	db.putScratch(s)
	st.Results = len(out)
	return out, st, nil
}

// SearchDist is Search additionally reporting each result's exact GED,
// aligned index-for-index with the returned ids. The pairs come back
// in unspecified order — the engine's top-k planner reorders by
// distance anyway, so the id sort is skipped. With SkipVerify set no
// results (and so no distances) are produced.
func (db *DB) SearchDist(q *Graph, opt Options) ([]int, []int, Stats, error) {
	s, st := db.search(q, opt, 0, len(db.graphs), true)
	ids := slices.Clone(s.results)
	dists := slices.Clone(s.dists)
	db.putScratch(s)
	st.Results = len(ids)
	return ids, dists, st, nil
}

// SearchRangeAppend runs the τ search restricted to ids in [lo, hi),
// appending the qualifying ids in ascending order to dst and
// accumulating statistics into st. It is the join engine's per-tile
// probe: the search loop runs over the ids of the window alone.
func (db *DB) SearchRangeAppend(q *Graph, opt Options, lo, hi int, dst []int64, st *Stats) ([]int64, error) {
	if lo < 0 {
		lo = 0
	}
	if hi > len(db.graphs) {
		hi = len(db.graphs)
	}
	if lo >= hi {
		return dst, nil
	}
	s, rst := db.search(q, opt, lo, hi, false)
	// Ids are scanned in ascending order, so results come out
	// ascending; widen before the scratch (and its result buffer) goes
	// back to the pool.
	dst = slices.Grow(dst, len(s.results))
	for _, id := range s.results {
		dst = append(dst, int64(id))
	}
	rst.Results = len(s.results)
	db.putScratch(s)
	st.Candidates += rst.Candidates
	st.Results += rst.Results
	st.BoxChecks += rst.BoxChecks
	return dst, nil
}

// search answers ids in [lo, hi) (the full corpus for the public
// Search wrappers, one tile's range on the join path) in ascending
// order. Each graph is screened whole first; a graph that passes tries
// its parts 0 … m−1 as chain heads, and the first chain that passes
// makes it a candidate, which exact GED verifies.
func (db *DB) search(q *Graph, opt Options, lo, hi int, wantDist bool) (*searchScratch, Stats) {
	var st Stats
	tau := db.tau
	l := min(max(opt.ChainLength, 1), tau+1)

	s := db.scratch.Get().(*searchScratch)
	s.qv, s.qe = db.sigs.countQuery(q, s.qv, s.qe)
	results := s.results
	dists := s.dists
	for id := lo; id < hi; id++ {
		if !db.screened(s, id, q) || !db.anyChain(s, id, l, q, &st) {
			continue
		}
		st.Candidates++
		if opt.SkipVerify {
			continue
		}
		if d := s.ks.gedExact(db.graphs[id], q, tau); d >= 0 {
			results = append(results, id)
			if wantDist {
				dists = append(dists, d)
			}
		}
	}
	s.results = results
	s.dists = dists
	return s, st
}

// sizeBound is |nx − nq| + |ex − eq|, the lower bound on GED that
// graph id's vertex and edge counts give against q's, read from the
// flat size array.
func (db *DB) sizeBound(id int, q *Graph) int {
	nx, ex := int(db.sizes[2*id]), int(db.sizes[2*id+1])
	return max(nx-q.n, q.n-nx) + max(ex-q.e, q.e-ex)
}

// screened reports whether graph id passes the whole-graph screen,
// cheapest bound first: the O(1) size bound, then GED's label bound
// from the graph's stored runs against the query counts in s, must
// both be at most τ. The size bound never exceeds the label bound, so
// the screen drops exactly the graphs whose label bound exceeds τ.
func (db *DB) screened(s *searchScratch, id int, q *Graph) bool {
	if db.sizeBound(id, q) > db.tau {
		return false
	}
	nx, ex := int(db.sizes[2*id]), int(db.sizes[2*id+1])
	return db.sigs.gedBound(id, nx, ex, q.n, q.e, s.qv, s.qe, db.tau) <= db.tau
}

// anyChain reports whether some part of graph id heads a passing chain
// of l boxes, trying the heads in part order.
func (db *DB) anyChain(s *searchScratch, id, l int, q *Graph, st *Stats) bool {
	for i := 0; i <= db.tau; i++ {
		if db.chain(s, id, i, l, q, st) {
			return true
		}
	}
	return false
}

// chain reports whether the chain of l boxes that graph id heads at
// part i passes: the head must embed (a 1-prefix's quota τ/m is below
// 1), and each later box takes the label bound against the budget the
// chain has left.
func (db *DB) chain(s *searchScratch, id, i, l int, q *Graph, st *Stats) bool {
	if db.box(s, id, i, 0, q, st) != 0 {
		return false
	}
	tau := db.tau
	m := tau + 1
	sum := 0
	for lp := 2; lp <= l; lp++ {
		j := (i + lp - 1) % m
		// quota(lp) = lp·τ/m; the box may use what is left.
		budget := max((lp*tau)/m-sum, 0)
		sum += db.box(s, id, j, budget, q, st)
		// quota(lp) = lp·τ/m: boxes and thresholds are integers,
		// so sum·m ≤ lp·τ compares exactly without the float
		// round-trip the generic quota form paid per box.
		if sum*m > lp*tau {
			return false
		}
	}
	return true
}

// SearchLinear verifies every graph directly; it is the ground truth
// for tests.
func (db *DB) SearchLinear(q *Graph) []int {
	var out []int
	for id, g := range db.graphs {
		if GEDWithin(g, q, db.tau) >= 0 {
			out = append(out, id)
		}
	}
	return out
}
