// Package graph implements thresholded graph edit distance search
// (Problem 5 of the pigeonring paper) with the Pars partition filter as
// the pigeonhole baseline and its pigeonring upgrade "Ring" (§6.4),
// together with the substrates they need: labeled undirected graphs,
// subgraph isomorphism with label wildcards, and an exact
// branch-and-bound graph edit distance verifier.
//
// The ⟨F, B, D⟩ instance follows §6.4: a data graph is partitioned into
// m = τ+1 disjoint parts; box i is the minimum graph edit distance from
// part i to any subgraph of the query; D(τ) = τ. The filters need only
// a lower bound on each box: ged(x_i, q') ≤ t only if some variant of
// x_i produced by at most t deletions (delete an edge, delete an
// isolated vertex, or change a vertex label to a wildcard) is
// subgraph-isomorphic to q, so any lower bound on that deletion count
// will do.
//
// Box values come from a label screen. At build time every part gets a
// signature: (label id, count) runs for its non-Wildcard vertex labels
// and for its edge labels, held in one arena per DB. A search counts
// the query's labels once over the same dictionaries. A variant embeds
// into q only if it has, for every label, no more vertices or edges
// with that label than q, and no more vertices than q. So at least
// max(vertex-label excess, |part| − |q|) + edge-label excess deletions
// are needed: an edge deletion lowers only the edge excess, by at most
// 1, and a wildcard or isolated-vertex deletion lowers only the vertex
// terms, by at most 1 each. That bound is the box value. A box with no
// budget (a chain's head, or a chain box once the chain has used its
// quota) whose bound is 0 also runs the exact sub-isomorphism test and
// reads 1 when the part does not embed, so Pars's candidates are exact
// and every chain starts at a part that embeds. Chain boxes with budget
// left keep the bound, which can be below the exact deletion count:
// Ring admits more candidates than an exact box would, never fewer.
// Stats.BoxChecks counts every box evaluation.
//
// A search scans the ids of its window in ascending order, so results
// come out sorted. Before any chain it screens each whole graph once,
// with the cheapest admissible GED bound first: the size bound
// |nx − nq| + |ex − eq|, read from a flat per-graph (vertex, edge)
// count array, then the label bound (LabelLowerBound) from the graph's
// stored runs, which skips the edge runs once its vertex term alone
// exceeds τ. A graph either
// bound puts above τ is skipped with all its parts, so box checks run
// only for screened-in graphs, and a candidate (Stats.Candidates) is a
// graph that passes the screen and then a chain, and so reaches exact
// GED. The size bound never exceeds the label bound, so the screen
// drops exactly the graphs whose label bound exceeds τ, whatever the
// chain length, Pars included. On graphs with few labels
// (dataset.Protein) the label bound is weak, the screen drops fewer
// graphs and the chains do more of the filtering.
//
// A graph that passes the screen tries its parts 0 … τ as chain heads,
// in order, and stops at the first chain that passes. A head box must
// read 0, so a part with more vertices or edges of some label than q
// fails at its head box's label bound.
//
// Everything a search reads that does not depend on the query is
// prepared in NewDB. The parts are held flat, one Graph per part id,
// their slices carved out of three arenas, and each part's vertices are
// written in the order the sub-isomorphism test matches them, so a box
// test starts matching at once. Beside the part signatures the arena
// holds each whole graph's label runs, Wildcard counted as a label;
// the screen's label bound is summed from those runs against the
// query's counts.
//
// Two substitutions versus Pars: parts are vertex-induced subgraphs
// (no half-edges), under which every edit operation still touches at
// most one part, so the pigeonhole and pigeonring filters remain
// complete; and each screened-in graph's parts are tried in order
// instead of being found through Pars's partition trie, which changes
// shared work but not the candidate set.
package graph

import (
	"fmt"
	"slices"
)

// Wildcard is the vertex label a wildcard deletion leaves behind; it
// matches any label during subgraph isomorphism.
const Wildcard int32 = -2

// Graph is an undirected graph with labeled vertices and labeled edges,
// stored as an adjacency matrix of edge labels (-1 = no edge). Graphs
// in this package are small (tens of vertices), where the matrix form
// makes isomorphism tests fastest. Edge counts and vertex degrees are
// maintained incrementally so the match kernels read them in O(1).
type Graph struct {
	n    int
	vlab []int32
	elab []int32 // n×n, symmetric, -1 when absent
	deg  []int   // per-vertex degree
	e    int     // number of edges
}

// MaxVertices bounds the vertex count of every graph that enters from
// outside the program — an inline query, a snapshot's graphs, a DB's
// corpus: New allocates an n×n adjacency matrix, so an unbounded n
// would let a few bytes of input force a multi-gigabyte allocation.
// Data graphs in this repo have tens of vertices.
const MaxVertices = 1024

// New returns a graph with n unlabeled (label 0) vertices and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	g := &Graph{n: n, vlab: make([]int32, n), elab: make([]int32, n*n), deg: make([]int, n)}
	for i := range g.elab {
		g.elab[i] = -1
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// SetVertexLabel sets the label of vertex v.
func (g *Graph) SetVertexLabel(v int, label int32) { g.vlab[v] = label }

// VertexLabel returns the label of vertex v.
func (g *Graph) VertexLabel(v int) int32 { return g.vlab[v] }

// AddEdge adds (or relabels) the undirected edge {u, v}.
func (g *Graph) AddEdge(u, v int, label int32) {
	if u == v {
		panic("graph: self loops are not supported")
	}
	if label < 0 {
		panic("graph: edge labels must be non-negative")
	}
	if g.elab[u*g.n+v] < 0 {
		g.e++
		g.deg[u]++
		g.deg[v]++
	}
	g.elab[u*g.n+v] = label
	g.elab[v*g.n+u] = label
}

// RemoveEdge deletes the edge {u, v} if present.
func (g *Graph) RemoveEdge(u, v int) {
	if g.elab[u*g.n+v] >= 0 {
		g.e--
		g.deg[u]--
		g.deg[v]--
	}
	g.elab[u*g.n+v] = -1
	g.elab[v*g.n+u] = -1
}

// EdgeLabel returns the label of edge {u, v}, or −1 if absent.
func (g *Graph) EdgeLabel(u, v int) int32 { return g.elab[u*g.n+v] }

// HasEdge reports whether the edge {u, v} exists.
func (g *Graph) HasEdge(u, v int) bool { return g.elab[u*g.n+v] >= 0 }

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int) int { return g.deg[v] }

// EdgeCount returns the number of edges.
func (g *Graph) EdgeCount() int { return g.e }

// Edge is an undirected labeled edge with U < V.
type Edge struct {
	U, V  int
	Label int32
}

// Edges returns all edges with U < V, in lexicographic order.
func (g *Graph) Edges() []Edge {
	return g.appendEdges(make([]Edge, 0, g.e))
}

// appendEdges appends all edges (U < V, lexicographic) to buf and
// returns it — the allocation-free form the pooled kernels use.
func (g *Graph) appendEdges(buf []Edge) []Edge {
	for u := 0; u < g.n; u++ {
		for v := u + 1; v < g.n; v++ {
			if l := g.elab[u*g.n+v]; l >= 0 {
				buf = append(buf, Edge{u, v, l})
			}
		}
	}
	return buf
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		n:    g.n,
		vlab: append([]int32(nil), g.vlab...),
		elab: append([]int32(nil), g.elab...),
		deg:  append([]int(nil), g.deg...),
		e:    g.e,
	}
	return c
}

// InducedSubgraph returns the subgraph induced by the given vertices
// (in the given order) — the part shape used by the partition filter.
func (g *Graph) InducedSubgraph(vs []int) *Graph {
	n := len(vs)
	s := &Graph{n: n, vlab: make([]int32, n), elab: make([]int32, n*n), deg: make([]int, n)}
	g.induceInto(s, vs)
	return s
}

// induceInto writes the subgraph of g induced by vs into s, vertex k
// being vs[k]. s.n must be len(vs), and s's vlab, elab and deg slices
// must have length n, n·n and n; their contents are overwritten.
func (g *Graph) induceInto(s *Graph, vs []int) {
	n := len(vs)
	s.e = 0
	for i, u := range vs {
		s.vlab[i] = g.vlab[u]
		row := g.elab[u*g.n : (u+1)*g.n]
		d := 0
		for j, v := range vs {
			l := row[v]
			s.elab[i*n+j] = l
			if l >= 0 {
				d++
			}
		}
		s.deg[i] = d
		s.e += d
	}
	s.e /= 2
}

// String renders a compact description for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d e=%d}", g.n, g.EdgeCount())
}

// appendEdgeLabels appends the label of every edge (U < V,
// lexicographic) to buf and returns it.
func (g *Graph) appendEdgeLabels(buf []int32) []int32 {
	for u := 0; u < g.n; u++ {
		for _, l := range g.elab[u*g.n+u+1 : (u+1)*g.n] {
			if l >= 0 {
				buf = append(buf, l)
			}
		}
	}
	return buf
}

// LabelVector summarizes label multisets for cheap lower bounds: each
// multiset is a sorted slice in which a label repeats once per vertex
// (edge) carrying it.
type LabelVector struct {
	vlabels []int32
	elabels []int32
}

// Labels returns the vertex- and edge-label multisets of g.
func Labels(g *Graph) LabelVector {
	var lv LabelVector
	labelsInto(g, &lv)
	return lv
}

// labelsInto fills lv with g's label multisets, reusing lv's slices —
// the allocation-free form the pooled kernels use.
func labelsInto(g *Graph, lv *LabelVector) {
	lv.vlabels = append(lv.vlabels[:0], g.vlab...)
	lv.elabels = g.appendEdgeLabels(lv.elabels[:0])
	slices.Sort(lv.vlabels)
	slices.Sort(lv.elabels)
}

// LabelLowerBound returns a cheap admissible lower bound on ged(a, b):
// the label-multiset distance max(|V_a|,|V_b|) − |V_a ∩ V_b| on
// vertices plus the same on edges. Every edit operation fixes at most
// one unit of either difference.
func LabelLowerBound(a, b LabelVector, na, nb, ea, eb int) int {
	vInter := multisetIntersection(a.vlabels, b.vlabels)
	eInter := multisetIntersection(a.elabels, b.elabels)
	return max(na, nb) - vInter + max(ea, eb) - eInter
}

// multisetIntersection returns |a ∩ b| for two sorted multisets by
// merging them.
func multisetIntersection(a, b []int32) int {
	s, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			s++
			i++
			j++
		}
	}
	return s
}
