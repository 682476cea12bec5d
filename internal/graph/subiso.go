package graph

// SubgraphIsomorphic reports whether pattern p embeds into g: an
// injective vertex mapping that preserves vertex labels (Wildcard in
// the pattern matches anything), and maps every pattern edge to a
// g-edge with the same label. Extra edges in g are allowed (non-induced
// embedding), which is the notion the partition filter needs.
//
// p is copied into match order and run through the kernel the box
// screen calls on a DB's stored parts.
func SubgraphIsomorphic(p, g *Graph) bool {
	if p.n > g.n || p.e > g.e {
		return false
	}
	ks := getKernel()
	n := p.n
	ks.all = growInts(ks.all, n)
	for v := range ks.all {
		ks.all[v] = v
	}
	ks.pat = Graph{n: n, vlab: growInt32s(ks.pat.vlab, n), elab: growInt32s(ks.pat.elab, n*n),
		deg: growInts(ks.pat.deg, n)}
	p.induceInto(&ks.pat, ks.matchOrder(p, ks.all))
	ok := ks.embeds(&ks.pat, g)
	putKernel(ks)
	return ok
}

// embeds reports whether p embeds into g, matching p's vertices in
// their stored order; a DB stores its parts in match order, so the box
// screen calls it directly.
func (ks *kernelScratch) embeds(p, g *Graph) bool {
	if p.n > g.n || p.e > g.e {
		return false
	}
	ks.phi = growInts(ks.phi, p.n)
	ks.used = growBoolsClear(ks.used, g.n)
	return ks.match(p, g, 0)
}

// match is the backtracking step: pattern vertex step goes next, and
// vertices 0…step−1 are mapped (ks.phi).
func (ks *kernelScratch) match(p, g *Graph, step int) bool {
	if step == p.n {
		return true
	}
	u := step
	ul := p.vlab[u]
	ud := p.deg[u]
	back := p.elab[u*p.n : u*p.n+u] // u's edges to the mapped vertices
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
		row := g.elab[v*g.n : (v+1)*g.n]
		ok := true
		for w, el := range back {
			if el >= 0 && row[ks.phi[w]] != el {
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
		ks.used[v] = false
	}
	return false
}

// matchOrder returns the vertices vs of g in an order that maps
// connected, high-degree vertices early, degrees counted in the
// subgraph vs induces: start from the max-degree vertex, then
// repeatedly pick the unplaced vertex with the most placed neighbours
// (ties by degree, then by position in vs). conn keeps each unplaced
// vertex's placed-neighbour count, −1 once it is placed, so the order
// costs O(len(vs)²) edge tests. The result is ks.order.
func (ks *kernelScratch) matchOrder(g *Graph, vs []int) []int {
	n := len(vs)
	deg := growInts(ks.deg, n)
	for k, u := range vs {
		deg[k] = 0
		for _, v := range vs {
			if g.HasEdge(u, v) {
				deg[k]++
			}
		}
	}
	order := growInts(ks.order, n)[:0]
	conn := growIntsZero(ks.conn, n)
	for len(order) < n {
		best := -1
		for k := range vs {
			if conn[k] >= 0 && (best < 0 || conn[k] > conn[best] ||
				(conn[k] == conn[best] && deg[k] > deg[best])) {
				best = k
			}
		}
		u := vs[best]
		order = append(order, u)
		conn[best] = -1
		for k, v := range vs {
			if conn[k] >= 0 && g.HasEdge(v, u) {
				conn[k]++
			}
		}
	}
	ks.order, ks.conn, ks.deg = order, conn, deg
	return order
}
