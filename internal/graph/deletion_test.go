package graph

// MinDeletionOps returns the smallest k ≤ budget such that some variant
// of part produced by k deletion operations — delete an edge, delete an
// isolated vertex, or change a vertex label to Wildcard — is
// subgraph-isomorphic to q; it returns budget+1 when no such variant
// exists. Because ged(part, q') ≤ t implies a ≤t-deletion variant
// embeds into q (each edit operation has a deletion "shadow"), the
// result is an admissible lower bound for the §6.4 box value. The
// search answers boxes with the label screen alone; this exhaustive
// walk is the reference the screen's bound is checked against.
func MinDeletionOps(part, q *Graph, budget int) int {
	if budget < 0 {
		budget = 0
	}
	// The walk mutates g and restores it on return.
	g := part.Clone()
	for k := 0; k <= budget; k++ {
		if existsVariant(g, q, k) {
			return k
		}
	}
	return budget + 1
}

// existsVariant explores variants reachable with ≤ ops deletions in
// the canonical order edge deletions → label wildcards → isolated-vertex
// deletions, testing the embedding at every node.
func existsVariant(g, q *Graph, ops int) bool {
	if SubgraphIsomorphic(g, q) {
		return true
	}
	if ops == 0 {
		return false
	}
	return deleteEdges(g, q, ops, 0)
}

func deleteEdges(g, q *Graph, ops, fromU int) bool {
	if ops > 0 {
		for u := fromU; u < g.n; u++ {
			for v := u + 1; v < g.n; v++ {
				l := g.EdgeLabel(u, v)
				if l < 0 {
					continue
				}
				g.RemoveEdge(u, v)
				found := SubgraphIsomorphic(g, q) || deleteEdges(g, q, ops-1, u)
				g.AddEdge(u, v, l)
				if found {
					return true
				}
			}
		}
	}
	return wildcardLabels(g, q, ops, 0)
}

func wildcardLabels(g, q *Graph, ops, fromV int) bool {
	if ops > 0 {
		for v := fromV; v < g.n; v++ {
			l := g.vlab[v]
			if l == Wildcard {
				continue
			}
			g.vlab[v] = Wildcard
			found := SubgraphIsomorphic(g, q) || wildcardLabels(g, q, ops-1, v+1)
			g.vlab[v] = l
			if found {
				return true
			}
		}
	}
	return deleteVertices(g, q, ops)
}

// deleteVertices handles the final phase: deleting isolated vertices.
// Deleting more vertices only relaxes the embedding, so any working
// subset extends to a working subset of maximal size — but which
// vertices are dropped matters, so all subsets of that size are tried.
func deleteVertices(g, q *Graph, ops int) bool {
	var isolated []int
	for v := 0; v < g.n; v++ {
		if g.deg[v] == 0 {
			isolated = append(isolated, v)
		}
	}
	if ops == 0 || len(isolated) == 0 {
		return false
	}
	return chooseDrop(g, q, isolated, make([]bool, g.n), 0, min(ops, len(isolated)))
}

// chooseDrop tries every left-subset of isolated[from:], testing the
// embedding of what remains of g against q.
func chooseDrop(g, q *Graph, isolated []int, drop []bool, from, left int) bool {
	if left == 0 {
		var keep []int
		for v := 0; v < g.n; v++ {
			if !drop[v] {
				keep = append(keep, v)
			}
		}
		return SubgraphIsomorphic(g.InducedSubgraph(keep), q)
	}
	for i := from; i+left <= len(isolated); i++ {
		drop[isolated[i]] = true
		found := chooseDrop(g, q, isolated, drop, i+1, left-1)
		drop[isolated[i]] = false
		if found {
			return true
		}
	}
	return false
}
