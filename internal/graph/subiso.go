package graph

// SubgraphIsomorphic reports whether pattern p embeds into g: an
// injective vertex mapping that preserves vertex labels (Wildcard in
// the pattern matches anything), and maps every pattern edge to a
// g-edge with the same label. Extra edges in g are allowed (non-induced
// embedding), which is the notion the partition filter needs.
func SubgraphIsomorphic(p, g *Graph) bool {
	ks := getKernel()
	ok := ks.subgraphIsomorphic(p, g)
	putKernel(ks)
	return ok
}

// subgraphIsomorphic is the pooled kernel behind SubgraphIsomorphic.
func (ks *kernelScratch) subgraphIsomorphic(p, g *Graph) bool {
	if p.n == 0 {
		return true
	}
	if p.n > g.n || p.e > g.e {
		return false
	}
	ks.matchOrder(p)
	ks.phi = growInts(ks.phi, p.n)
	for i := range ks.phi {
		ks.phi[i] = -1
	}
	ks.used = growBoolsClear(ks.used, g.n)
	return ks.match(p, g, 0)
}

// match is the backtracking step over ks.order.
func (ks *kernelScratch) match(p, g *Graph, step int) bool {
	if step == p.n {
		return true
	}
	u := ks.order[step]
	ul := p.vlab[u]
	ud := p.deg[u]
	for v := 0; v < g.n; v++ {
		if ks.used[v] {
			continue
		}
		if ul != Wildcard && ul != g.vlab[v] {
			continue
		}
		if ud > g.deg[v] {
			continue
		}
		ok := true
		for w := 0; w < p.n; w++ {
			el := p.elab[u*p.n+w]
			if el < 0 || ks.phi[w] < 0 {
				continue
			}
			if g.elab[v*g.n+ks.phi[w]] != el {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		ks.phi[u] = v
		ks.used[v] = true
		if ks.match(p, g, step+1) {
			return true
		}
		ks.phi[u] = -1
		ks.used[v] = false
	}
	return false
}

// matchOrder fills ks.order with a vertex order that maps connected,
// high-degree vertices early: start from the max-degree vertex, then
// repeatedly pick the unmapped vertex with the most mapped neighbours
// (ties by degree).
func (ks *kernelScratch) matchOrder(p *Graph) {
	n := p.n
	order := growInts(ks.order, n)[:0]
	placed := growBoolsClear(ks.placed, n)
	for len(order) < n {
		best, bestConn, bestDeg := -1, -1, -1
		for u := 0; u < n; u++ {
			if placed[u] {
				continue
			}
			conn := 0
			for _, v := range order {
				if p.HasEdge(u, v) {
					conn++
				}
			}
			d := p.deg[u]
			if conn > bestConn || (conn == bestConn && d > bestDeg) {
				best, bestConn, bestDeg = u, conn, d
			}
		}
		order = append(order, best)
		placed[best] = true
	}
	ks.order = order
	ks.placed = placed
}

// MinDeletionOps returns the smallest k ≤ budget such that some variant
// of part produced by k deletion operations — delete an edge, delete an
// isolated vertex, or change a vertex label to Wildcard — is
// subgraph-isomorphic to q; it returns budget+1 when no such variant
// exists. Because ged(part, q') ≤ t implies a ≤t-deletion variant
// embeds into q (each edit operation has a deletion "shadow"), the
// result is an admissible lower bound for the §6.4 box value.
func MinDeletionOps(part, q *Graph, budget int) int {
	ks := getKernel()
	v := ks.minDeletionOps(part, q, 0, budget)
	putKernel(ks)
	return v
}

// minDeletionOps is the pooled kernel behind MinDeletionOps. It tries
// deletion counts from lb up; lb must be a lower bound on the answer
// (the DB's box screen supplies one), so the counts it skips could not
// have succeeded.
func (ks *kernelScratch) minDeletionOps(part, q *Graph, lb, budget int) int {
	if budget < 0 {
		budget = 0
	}
	// The variant walk mutates a private copy held in pooled buffers,
	// which keeps concurrent searches from racing on the shared indexed
	// parts without the old per-call Clone.
	ks.vg.copyFrom(part)
	for k := max(lb, 0); k <= budget; k++ {
		if ks.existsVariant(&ks.vg, q, k) {
			return k
		}
	}
	return budget + 1
}

// existsVariant explores variants reachable with exactly ≤ ops
// deletions in the canonical order edge-deletions → label wildcards →
// isolated-vertex deletions, testing the embedding at every node. It
// mutates g during the walk and restores it on return.
func (ks *kernelScratch) existsVariant(g *Graph, q *Graph, ops int) bool {
	if ks.subgraphIsomorphic(g, q) {
		return true
	}
	if ops == 0 {
		return false
	}
	return ks.deleteEdges(g, q, ops, 0)
}

func (ks *kernelScratch) deleteEdges(g, q *Graph, ops, fromU int) bool {
	if ops > 0 {
		for u := fromU; u < g.n; u++ {
			for v := u + 1; v < g.n; v++ {
				l := g.EdgeLabel(u, v)
				if l < 0 {
					continue
				}
				g.RemoveEdge(u, v)
				if ks.subgraphIsomorphic(g, q) || ks.deleteEdges(g, q, ops-1, u) {
					g.AddEdge(u, v, l)
					return true
				}
				g.AddEdge(u, v, l)
			}
		}
	}
	return ks.wildcardLabels(g, q, ops, 0)
}

func (ks *kernelScratch) wildcardLabels(g, q *Graph, ops, fromV int) bool {
	if ops > 0 {
		for v := fromV; v < g.n; v++ {
			l := g.vlab[v]
			if l == Wildcard {
				continue
			}
			g.vlab[v] = Wildcard
			if ks.subgraphIsomorphic(g, q) || ks.wildcardLabels(g, q, ops-1, v+1) {
				g.vlab[v] = l
				return true
			}
			g.vlab[v] = l
		}
	}
	return ks.deleteVertices(g, q, ops)
}

// deleteVertices handles the final phase: deleting isolated vertices.
// Deleting more vertices only relaxes the embedding, so any working
// subset extends to a working subset of maximal size — but which
// vertices are dropped matters, so all subsets of that size are tried.
func (ks *kernelScratch) deleteVertices(g, q *Graph, ops int) bool {
	if ops == 0 {
		return false
	}
	isolated := ks.isolated[:0]
	for v := 0; v < g.n; v++ {
		if g.deg[v] == 0 {
			isolated = append(isolated, v)
		}
	}
	ks.isolated = isolated
	if len(isolated) == 0 {
		return false
	}
	k := ops
	if k > len(isolated) {
		k = len(isolated)
	}
	ks.drop = growBoolsClear(ks.drop, g.n)
	return ks.chooseDrop(g, q, isolated, 0, k)
}

// chooseDrop tries every k-subset of the isolated vertices, testing
// the embedding of the induced remainder against q.
func (ks *kernelScratch) chooseDrop(g, q *Graph, isolated []int, from, left int) bool {
	if left == 0 {
		keep := ks.keep[:0]
		for v := 0; v < g.n; v++ {
			if !ks.drop[v] {
				keep = append(keep, v)
			}
		}
		ks.keep = keep
		g.induceInto(&ks.sub, keep)
		return ks.subgraphIsomorphic(&ks.sub, q)
	}
	for i := from; i+left <= len(isolated); i++ {
		ks.drop[isolated[i]] = true
		if ks.chooseDrop(g, q, isolated, i+1, left-1) {
			ks.drop[isolated[i]] = false
			return true
		}
		ks.drop[isolated[i]] = false
	}
	return false
}
