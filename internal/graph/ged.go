package graph

import "slices"

// GEDWithin returns the exact graph edit distance between a and b if it
// is at most tau, and −1 otherwise. Edit operations (unit cost each):
// insert/delete an isolated labeled vertex, change a vertex label,
// insert/delete a labeled edge, change an edge label.
//
// The search is a branch-and-bound over injective mappings from a's
// vertices to b's vertices or ε (deletion), ordered by descending
// degree, pruned with the remaining-label-multiset lower bound.
func GEDWithin(a, b *Graph, tau int) int {
	if tau < 0 {
		return -1
	}
	ks := getKernel()
	s := &ks.ged
	labelsInto(a, &s.la)
	labelsInto(b, &s.lb)
	d := -1
	// Cheap global bound first.
	if LabelLowerBound(s.la, s.lb, a.n, b.n, a.e, b.e) <= tau {
		d = ks.gedExact(a, b, tau)
	}
	putKernel(ks)
	return d
}

// GED returns the exact graph edit distance, for small graphs (tests
// and examples). It grows the threshold until the bounded search
// succeeds.
func GED(a, b *Graph) int {
	for tau := 0; ; tau++ {
		if d := GEDWithin(a, b, tau); d >= 0 {
			return d
		}
	}
}

// gedState is the branch-and-bound state, embedded in kernelScratch so
// every buffer is reused across calls.
type gedState struct {
	a, b   *Graph
	tau    int
	best   int
	order  []int
	bEdges []Edge
	phi    []int // a-vertex -> b-vertex or -1 (ε); indexed by a-vertex
	usedB  []bool
	// dict holds the pair's distinct vertex labels, sorted; aLab and
	// bLab give each vertex's label as an index into it, and remA and
	// remB count, per index, the vertices of a and b not yet mapped.
	dict       []int32
	aLab, bLab []int
	remA, remB []int
	// la and lb hold GEDWithin's label multisets of a and b.
	la, lb LabelVector
}

// gedExact is the branch-and-bound behind GEDWithin, run once the label
// bound has let the pair through: a DB search takes that bound from
// its stored label runs, GEDWithin from freshly built multisets.
func (ks *kernelScratch) gedExact(a, b *Graph, tau int) int {
	s := &ks.ged
	s.a, s.b, s.tau, s.best = a, b, tau, tau+1
	s.order = degreeOrderInto(a, s.order)
	s.bEdges = b.appendEdges(s.bEdges[:0])
	s.phi = growInts(s.phi, a.n)
	for i := range s.phi {
		s.phi[i] = -1
	}
	s.usedB = growBoolsClear(s.usedB, b.n)
	s.dict = append(append(s.dict[:0], a.vlab...), b.vlab...)
	slices.Sort(s.dict)
	s.dict = slices.Compact(s.dict)
	s.remA = growIntsZero(s.remA, len(s.dict))
	s.remB = growIntsZero(s.remB, len(s.dict))
	s.aLab = s.labelIDs(a, s.aLab, s.remA)
	s.bLab = s.labelIDs(b, s.bLab, s.remB)
	s.search(0, 0)
	if s.best > tau {
		return -1
	}
	return s.best
}

// labelIDs fills ids with the dictionary index of each of g's vertex
// labels, counts them into rem, and returns ids.
func (s *gedState) labelIDs(g *Graph, ids, rem []int) []int {
	ids = growInts(ids, g.n)
	for v, l := range g.vlab {
		ids[v], _ = slices.BinarySearch(s.dict, l)
		rem[ids[v]]++
	}
	return ids
}

// degreeOrderInto fills buf with g's vertices in descending degree
// order and returns it.
func degreeOrderInto(g *Graph, buf []int) []int {
	order := growInts(buf, g.n)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && g.deg[order[j]] > g.deg[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// vertexLB is the remaining-vertex lower bound: every surplus vertex
// costs an insertion or deletion, and every label-mismatched pairing
// costs a relabel.
func (s *gedState) vertexLB(remACount, remBCount int) int {
	inter := 0
	for l, ca := range s.remA {
		inter += min(ca, s.remB[l])
	}
	return max(remACount, remBCount) - inter
}

func (s *gedState) search(step, cost int) {
	if cost >= s.best {
		return
	}
	if step == len(s.order) {
		// Account for unmapped b-vertices and every b-edge with at
		// least one unmapped endpoint.
		total := cost
		for v := 0; v < s.b.n; v++ {
			if !s.usedB[v] {
				total++
			}
		}
		for _, e := range s.bEdges {
			if !s.usedB[e.U] || !s.usedB[e.V] {
				total++
			}
		}
		if total < s.best {
			s.best = total
		}
		return
	}
	remACount := len(s.order) - step
	remBCount := 0
	for v := 0; v < s.b.n; v++ {
		if !s.usedB[v] {
			remBCount++
		}
	}
	if cost+s.vertexLB(remACount, remBCount) >= s.best {
		return
	}

	u := s.order[step]
	ul := s.aLab[u]

	// Try mapping u to each unused b-vertex, label matches first.
	for v := 0; v < s.b.n; v++ {
		if !s.usedB[v] && s.bLab[v] == ul {
			s.tryMap(step, cost, u, ul, v)
		}
	}
	for v := 0; v < s.b.n; v++ {
		if !s.usedB[v] && s.bLab[v] != ul {
			s.tryMap(step, cost, u, ul, v)
		}
	}

	// Map u to ε: delete the vertex and all its edges to mapped
	// vertices (edges to unmapped a-vertices are charged later, when
	// those vertices are processed).
	delta := 1
	for _, w := range s.order[:step] {
		if s.a.elab[u*s.a.n+w] >= 0 {
			delta++
		}
	}
	s.phi[u] = -1
	s.remA[ul]--
	// Note: phi[u] stays -1 (ε) during deeper steps.
	s.search(step+1, cost+delta)
	s.remA[ul]++
}

// tryMap maps a-vertex u (label index ul) onto b-vertex v and recurses.
func (s *gedState) tryMap(step, cost, u, ul, v int) {
	delta := 0
	vl := s.bLab[v]
	if ul != vl {
		delta++
	}
	// Edges between u and previously mapped a-vertices.
	for _, w := range s.order[:step] {
		e1 := s.a.elab[u*s.a.n+w]
		var e2 int32 = -1
		if pw := s.phi[w]; pw >= 0 {
			e2 = s.b.elab[v*s.b.n+pw]
		}
		if e1 != e2 && (e1 >= 0 || e2 >= 0) {
			delta++
		}
	}
	s.phi[u] = v
	s.usedB[v] = true
	s.remA[ul]--
	s.remB[vl]--
	s.search(step+1, cost+delta)
	s.remB[vl]++
	s.remA[ul]++
	s.usedB[v] = false
	s.phi[u] = -1
}
