package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// molecule builds a labeled graph from a vertex label list and edges.
func molecule(vlabs []int32, edges [][3]int32) *Graph {
	g := New(len(vlabs))
	for v, l := range vlabs {
		g.SetVertexLabel(v, l)
	}
	for _, e := range edges {
		g.AddEdge(int(e[0]), int(e[1]), e[2])
	}
	return g
}

func TestGraphBasics(t *testing.T) {
	g := New(4)
	g.SetVertexLabel(0, 7)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 3)
	if g.N() != 4 || g.EdgeCount() != 2 {
		t.Fatalf("n=%d e=%d", g.N(), g.EdgeCount())
	}
	if !g.HasEdge(1, 0) || g.EdgeLabel(0, 1) != 2 {
		t.Error("undirected edge storage broken")
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Error("degree broken")
	}
	g.RemoveEdge(0, 1)
	if g.HasEdge(0, 1) || g.EdgeCount() != 1 {
		t.Error("RemoveEdge broken")
	}
	edges := g.Edges()
	if len(edges) != 1 || edges[0] != (Edge{1, 2, 3}) {
		t.Errorf("Edges = %v", edges)
	}
	c := g.Clone()
	c.AddEdge(0, 3, 9)
	if g.HasEdge(0, 3) {
		t.Error("clone aliases original")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := molecule([]int32{1, 2, 3, 4}, [][3]int32{{0, 1, 0}, {1, 2, 0}, {2, 3, 5}})
	s := g.InducedSubgraph([]int{1, 2, 3})
	if s.N() != 3 || s.EdgeCount() != 2 {
		t.Fatalf("induced: n=%d e=%d", s.N(), s.EdgeCount())
	}
	if s.VertexLabel(0) != 2 || s.EdgeLabel(1, 2) != 5 {
		t.Error("induced labels wrong")
	}
}

func TestSubgraphIsomorphicBasics(t *testing.T) {
	// Pattern C-C inside a C-C-O chain.
	host := molecule([]int32{6, 6, 8}, [][3]int32{{0, 1, 0}, {1, 2, 0}})
	cc := molecule([]int32{6, 6}, [][3]int32{{0, 1, 0}})
	co := molecule([]int32{6, 8}, [][3]int32{{0, 1, 0}})
	cn := molecule([]int32{6, 7}, [][3]int32{{0, 1, 0}})
	if !SubgraphIsomorphic(cc, host) || !SubgraphIsomorphic(co, host) {
		t.Error("expected embeddings not found")
	}
	if SubgraphIsomorphic(cn, host) {
		t.Error("C-N must not embed")
	}
	// Edge labels must match exactly.
	ccDouble := molecule([]int32{6, 6}, [][3]int32{{0, 1, 1}})
	if SubgraphIsomorphic(ccDouble, host) {
		t.Error("edge label mismatch must fail")
	}
	// Wildcards match any vertex label.
	wc := molecule([]int32{Wildcard, 8}, [][3]int32{{0, 1, 0}})
	if !SubgraphIsomorphic(wc, host) {
		t.Error("wildcard embedding not found")
	}
	// Empty pattern embeds everywhere.
	if !SubgraphIsomorphic(New(0), host) {
		t.Error("empty pattern must embed")
	}
	// Too many vertices cannot embed.
	if SubgraphIsomorphic(New(4), host) {
		t.Error("4 vertices cannot embed into 3")
	}
}

// refSubIso enumerates all injective mappings.
func refSubIso(p, g *Graph) bool {
	if p.N() > g.N() {
		return false
	}
	perm := make([]int, 0, p.N())
	used := make([]bool, g.N())
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == p.N() {
			return true
		}
		for v := 0; v < g.N(); v++ {
			if used[v] {
				continue
			}
			if pl := p.VertexLabel(i); pl != Wildcard && pl != g.VertexLabel(v) {
				continue
			}
			ok := true
			for j := 0; j < i; j++ {
				el := p.EdgeLabel(i, j)
				if el >= 0 && g.EdgeLabel(v, perm[j]) != el {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			perm = append(perm, v)
			used[v] = true
			if rec(i + 1) {
				return true
			}
			perm = perm[:len(perm)-1]
			used[v] = false
		}
		return false
	}
	return rec(0)
}

func randomGraph(rng *rand.Rand, n, vlabels, elabels int, density float64) *Graph {
	g := New(n)
	for v := 0; v < n; v++ {
		g.SetVertexLabel(v, int32(rng.Intn(vlabels)))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < density {
				g.AddEdge(u, v, int32(rng.Intn(elabels)))
			}
		}
	}
	return g
}

func TestSubgraphIsomorphicAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 300; trial++ {
		p := randomGraph(rng, 1+rng.Intn(4), 3, 2, 0.5)
		g := randomGraph(rng, 1+rng.Intn(6), 3, 2, 0.5)
		if got, want := SubgraphIsomorphic(p, g), refSubIso(p, g); got != want {
			t.Fatalf("sub-iso mismatch: got %v want %v\np=%v g=%v", got, want, p.Edges(), g.Edges())
		}
	}
}

// TestMatchOrder: matchOrder's incremental placed-neighbour counts
// give the order of the plain rule — the unplaced vertex with the most
// placed neighbours, ties by induced degree, then by position — on
// random graphs and vertex subsets.
func TestMatchOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	ks := new(kernelScratch)
	for trial := 0; trial < 300; trial++ {
		g := randomGraph(rng, 1+rng.Intn(12), 2, 2, rng.Float64())
		vs := rng.Perm(g.n)[:rng.Intn(g.n+1)]
		count := func(u int, ws []int) int {
			c := 0
			for _, w := range ws {
				if g.HasEdge(u, w) {
					c++
				}
			}
			return c
		}
		var want []int
		for len(want) < len(vs) {
			best := -1
			for _, u := range vs {
				if slices.Contains(want, u) {
					continue
				}
				if best < 0 || count(u, want) > count(best, want) ||
					count(u, want) == count(best, want) && count(u, vs) > count(best, vs) {
					best = u
				}
			}
			want = append(want, best)
		}
		if got := ks.matchOrder(g, vs); !slices.Equal(got, want) {
			t.Fatalf("matchOrder(%v) = %v, want %v\nedges %v", vs, got, want, g.Edges())
		}
	}
}

func TestGEDKnownCases(t *testing.T) {
	cc := molecule([]int32{6, 6}, [][3]int32{{0, 1, 0}})
	ccSame := molecule([]int32{6, 6}, [][3]int32{{0, 1, 0}})
	if d := GED(cc, ccSame); d != 0 {
		t.Errorf("identical graphs: ged = %d", d)
	}
	// One relabel.
	cn := molecule([]int32{6, 7}, [][3]int32{{0, 1, 0}})
	if d := GED(cc, cn); d != 1 {
		t.Errorf("relabel: ged = %d", d)
	}
	// Edge label change.
	ccD := molecule([]int32{6, 6}, [][3]int32{{0, 1, 1}})
	if d := GED(cc, ccD); d != 1 {
		t.Errorf("edge relabel: ged = %d", d)
	}
	// Add an isolated vertex: 1 insertion.
	ccPlus := molecule([]int32{6, 6, 8}, [][3]int32{{0, 1, 0}})
	if d := GED(cc, ccPlus); d != 1 {
		t.Errorf("vertex insert: ged = %d", d)
	}
	// Attach the new vertex: insertion + edge insertion.
	ccO := molecule([]int32{6, 6, 8}, [][3]int32{{0, 1, 0}, {1, 2, 0}})
	if d := GED(cc, ccO); d != 2 {
		t.Errorf("vertex+edge insert: ged = %d", d)
	}
	// Empty vs two isolated vertices.
	if d := GED(New(0), New(2)); d != 2 {
		t.Errorf("empty vs 2 vertices: ged = %d", d)
	}
}

// TestGEDWithinConsistency: the bounded search agrees with the
// unbounded one.
func TestGEDWithinConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 120; trial++ {
		a := randomGraph(rng, 1+rng.Intn(6), 3, 2, 0.4)
		b := randomGraph(rng, 1+rng.Intn(6), 3, 2, 0.4)
		d := GED(a, b)
		for _, tau := range []int{0, 1, 2, 3, 5, 12} {
			got := GEDWithin(a, b, tau)
			if d <= tau && got != d {
				t.Fatalf("GEDWithin(τ=%d) = %d, want %d", tau, got, d)
			}
			if d > tau && got != -1 {
				t.Fatalf("GEDWithin(τ=%d) = %d, want -1 (d=%d)", tau, got, d)
			}
		}
	}
}

// TestGEDMetricProperties: symmetry, identity, triangle inequality.
func TestGEDMetricProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 60; trial++ {
		a := randomGraph(rng, 1+rng.Intn(5), 3, 2, 0.4)
		b := randomGraph(rng, 1+rng.Intn(5), 3, 2, 0.4)
		c := randomGraph(rng, 1+rng.Intn(5), 3, 2, 0.4)
		ab, ba := GED(a, b), GED(b, a)
		if ab != ba {
			t.Fatalf("asymmetric: %d vs %d", ab, ba)
		}
		if GED(a, a) != 0 {
			t.Fatal("ged(a,a) != 0")
		}
		if GED(a, c) > ab+GED(b, c) {
			t.Fatal("triangle inequality violated")
		}
	}
}

// TestGEDEditScript: applying k random operations yields ged ≤ k.
func TestGEDEditScript(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 80; trial++ {
		a := randomGraph(rng, 3+rng.Intn(4), 4, 2, 0.4)
		b := a.Clone()
		k := rng.Intn(4)
		applied := 0
		for op := 0; op < k; op++ {
			switch rng.Intn(3) {
			case 0: // relabel a vertex
				v := rng.Intn(b.N())
				b.SetVertexLabel(v, int32(rng.Intn(4)))
				applied++ // may be a no-op relabel; still ≤ k
			case 1: // toggle an edge
				u, v := rng.Intn(b.N()), rng.Intn(b.N())
				if u == v {
					continue
				}
				if b.HasEdge(u, v) {
					b.RemoveEdge(u, v)
				} else {
					b.AddEdge(u, v, int32(rng.Intn(2)))
				}
				applied++
			case 2: // relabel an edge
				es := b.Edges()
				if len(es) == 0 {
					continue
				}
				e := es[rng.Intn(len(es))]
				b.AddEdge(e.U, e.V, int32(rng.Intn(2)))
				applied++
			}
		}
		if d := GED(a, b); d > applied {
			t.Fatalf("ged = %d after %d ops", d, applied)
		}
	}
}

// TestLabelLowerBoundAdmissible: the multiset bound never exceeds the
// exact distance.
func TestLabelLowerBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 150; trial++ {
		a := randomGraph(rng, 1+rng.Intn(5), 3, 2, 0.4)
		b := randomGraph(rng, 1+rng.Intn(5), 3, 2, 0.4)
		lb := LabelLowerBound(Labels(a), Labels(b), a.N(), b.N(), a.EdgeCount(), b.EdgeCount())
		if d := GED(a, b); lb > d {
			t.Fatalf("label bound %d exceeds ged %d", lb, d)
		}
	}
}

// TestMinDeletionOpsAdmissible: the deletion-neighbourhood bound never
// exceeds the true minimum GED to a subgraph of q, here approximated
// from above by ged(part, q) itself when q embeds nothing smaller.
func TestMinDeletionOpsAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for trial := 0; trial < 100; trial++ {
		part := randomGraph(rng, 1+rng.Intn(4), 3, 2, 0.5)
		q := randomGraph(rng, 2+rng.Intn(6), 3, 2, 0.5)
		budget := rng.Intn(4)
		got := MinDeletionOps(part, q, budget)
		if got > budget+1 || got < 0 {
			t.Fatalf("MinDeletionOps out of range: %d (budget %d)", got, budget)
		}
		// Reference: min over all subgraphs q' ⊑ q of ged(part, q'),
		// computed by enumerating vertex subsets and edge subsets is
		// exponential; instead check the defining guarantee on both
		// sides: if got = 0, part embeds; if got > budget, no ≤budget
		// deletion variant embeds (spot-checked by single deletions).
		if got == 0 && !SubgraphIsomorphic(part, q) {
			t.Fatal("MinDeletionOps = 0 but no embedding")
		}
		if got > 0 && SubgraphIsomorphic(part, q) {
			t.Fatal("MinDeletionOps > 0 but part embeds")
		}
		if budget >= 1 && got > 1 {
			// No single edge deletion or wildcard may admit embedding.
			for _, e := range part.Edges() {
				v := part.Clone()
				v.RemoveEdge(e.U, e.V)
				if SubgraphIsomorphic(v, q) {
					t.Fatal("found 1-deletion embedding but MinDeletionOps > 1")
				}
			}
			for u := 0; u < part.N(); u++ {
				v := part.Clone()
				v.SetVertexLabel(u, Wildcard)
				if SubgraphIsomorphic(v, q) {
					t.Fatal("found 1-wildcard embedding but MinDeletionOps > 1")
				}
			}
		}
	}
}

// TestGEDImpliesDeletionVariant: the §6.4 necessary condition — if
// ged(x, q) ≤ t then some ≤t-deletion variant of x embeds into q.
func TestGEDImpliesDeletionVariant(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 80; trial++ {
		x := randomGraph(rng, 1+rng.Intn(4), 3, 2, 0.5)
		q := randomGraph(rng, 1+rng.Intn(5), 3, 2, 0.5)
		d := GED(x, q)
		if d <= 3 {
			if got := MinDeletionOps(x, q, d); got > d {
				t.Fatalf("ged = %d but MinDeletionOps = %d", d, got)
			}
		}
	}
}

func TestPanicsAndValidation(t *testing.T) {
	g := New(3)
	for _, fn := range []func(){
		func() { New(-1) },
		func() { g.AddEdge(1, 1, 0) },
		func() { g.AddEdge(0, 1, -3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
	if GEDWithin(New(1), New(1), -1) != -1 {
		t.Error("negative τ must return -1")
	}
}
