// Package graph implements thresholded graph edit distance search
// (Problem 5 of the pigeonring paper) with the Pars partition filter as
// the pigeonhole baseline and its pigeonring upgrade "Ring" (§6.4),
// together with the substrates they need: labeled undirected graphs,
// subgraph isomorphism with label wildcards, deletion neighborhoods,
// and an exact branch-and-bound graph edit distance verifier.
//
// The ⟨F, B, D⟩ instance follows §6.4: a data graph is partitioned into
// m = τ+1 disjoint parts; box i is the minimum graph edit distance from
// part i to any subgraph of the query; D(τ) = τ. Box values are lower
// bounded by the deletion-neighborhood test: ged(x_i, q') ≤ t only if
// some variant of x_i produced by at most t deletions (delete an edge,
// delete an isolated vertex, or change a vertex label to a wildcard) is
// subgraph-isomorphic to q.
//
// One substitution versus Pars: parts are
// vertex-induced subgraphs (no half-edges), under which every edit
// operation still touches at most one part, so the pigeonhole and
// pigeonring filters remain complete; and the partition filter is
// evaluated per graph instead of through Pars's partition trie, which
// changes shared work but not the candidate set.
package graph

import "fmt"

// Wildcard is the vertex label produced by deletion-neighborhood label
// erasure; it matches any label during subgraph isomorphism.
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

// copyFrom makes g a deep copy of src, reusing g's buffers — the
// pooled replacement for Clone in the deletion-neighbourhood walk.
func (g *Graph) copyFrom(src *Graph) {
	g.n = src.n
	g.e = src.e
	g.vlab = append(g.vlab[:0], src.vlab...)
	g.elab = append(g.elab[:0], src.elab...)
	g.deg = append(g.deg[:0], src.deg...)
}

// induceInto writes the subgraph of g induced by vs into dst, reusing
// dst's buffers.
func (g *Graph) induceInto(dst *Graph, vs []int) {
	n := len(vs)
	dst.n = n
	dst.e = 0
	dst.vlab = growInt32s(dst.vlab, n)
	dst.elab = growInt32s(dst.elab, n*n)
	dst.deg = growIntsZero(dst.deg, n)
	for i := range dst.elab {
		dst.elab[i] = -1
	}
	for i, v := range vs {
		dst.vlab[i] = g.vlab[v]
	}
	for i, u := range vs {
		for j := i + 1; j < n; j++ {
			if l := g.elab[u*g.n+vs[j]]; l >= 0 {
				dst.elab[i*n+j] = l
				dst.elab[j*n+i] = l
				dst.deg[i]++
				dst.deg[j]++
				dst.e++
			}
		}
	}
}

// InducedSubgraph returns the subgraph induced by the given vertices
// (in the given order) — the part shape used by the partition filter.
func (g *Graph) InducedSubgraph(vs []int) *Graph {
	s := New(len(vs))
	for i, v := range vs {
		s.vlab[i] = g.vlab[v]
	}
	for i, u := range vs {
		for j, v := range vs {
			if i < j && g.HasEdge(u, v) {
				s.AddEdge(i, j, g.EdgeLabel(u, v))
			}
		}
	}
	return s
}

// String renders a compact description for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d e=%d}", g.n, g.EdgeCount())
}

// LabelVector summarizes label multisets for cheap lower bounds.
type LabelVector struct {
	vcount map[int32]int
	ecount map[int32]int
}

// Labels returns the vertex- and edge-label multisets of g.
func Labels(g *Graph) LabelVector {
	var lv LabelVector
	labelsInto(g, &lv)
	return lv
}

// labelsInto fills lv with g's label multisets, reusing lv's maps —
// the allocation-free form the pooled kernels and searches use.
func labelsInto(g *Graph, lv *LabelVector) {
	if lv.vcount == nil {
		lv.vcount = make(map[int32]int)
		lv.ecount = make(map[int32]int)
	}
	clear(lv.vcount)
	clear(lv.ecount)
	for _, l := range g.vlab {
		lv.vcount[l]++
	}
	for u := 0; u < g.n; u++ {
		for v := u + 1; v < g.n; v++ {
			if l := g.elab[u*g.n+v]; l >= 0 {
				lv.ecount[l]++
			}
		}
	}
}

// LabelLowerBound returns a cheap admissible lower bound on ged(a, b):
// the label-multiset distance max(|V_a|,|V_b|) − |V_a ∩ V_b| on
// vertices plus the same on edges. Every edit operation fixes at most
// one unit of either difference.
func LabelLowerBound(a, b LabelVector, na, nb, ea, eb int) int {
	vInter := multisetIntersection(a.vcount, b.vcount)
	eInter := multisetIntersection(a.ecount, b.ecount)
	lb := max(na, nb) - vInter + max(ea, eb) - eInter
	return lb
}

func multisetIntersection(a, b map[int32]int) int {
	s := 0
	for k, ca := range a {
		if cb, ok := b[k]; ok {
			s += min(ca, cb)
		}
	}
	return s
}
