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
