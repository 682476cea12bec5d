package graph

import (
	"math/rand"
	"testing"
)

// screenGraph decodes a small graph from next: up to maxN vertices
// with labels in [0, labels) — the value labels itself standing for
// Wildcard — and at most maxE edges with labels in [0, 3).
func screenGraph(next func() byte, maxN, labels, maxE int) *Graph {
	g := New(int(next()) % (maxN + 1))
	for v := 0; v < g.n; v++ {
		l := int32(int(next()) % (labels + 1))
		if l == int32(labels) {
			l = Wildcard
		}
		g.SetVertexLabel(v, l)
	}
	for u := 0; u < g.n; u++ {
		for v := u + 1; v < g.n && g.e < maxE; v++ {
			if b := next() % 4; b < 3 {
				g.AddEdge(u, v, int32(b))
			}
		}
	}
	return g
}

// checkScreen builds the signatures of part and a second part that
// shares its dictionaries, then requires the screen's bound for part
// to be at most the exact minimum deletion count. n+e deletions (every
// edge, then every vertex) always leave an embeddable empty graph, so
// that budget makes MinDeletionOps exact.
func checkScreen(t *testing.T, part, other, q *Graph) int {
	t.Helper()
	s := buildPartSigs(nil, []Graph{*part, *other})
	qv, qe := s.countQuery(q, nil, nil)
	lb := s.bound(0, part.n, q.n, qv, qe)
	if exact := MinDeletionOps(part, q, part.n+part.e); lb > exact {
		t.Fatalf("screen bound %d > MinDeletionOps %d\npart %v %v\nquery %v %v",
			lb, exact, part.vlab, part.Edges(), q.vlab, q.Edges())
	}
	return lb
}

// TestBoxScreenAdmissible: on random parts and queries — Wildcard
// part vertices, query labels no part carries (labels 3 and 4, and
// Wildcard), empty parts, parts larger than the query — the label
// screen never exceeds the box value it stands in for. And since the
// ring adds box values across a graph's parts, the bounds of the τ+1
// BFSPartitioner parts of a graph x sum to at most ged(x, q).
func TestBoxScreenAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	next := func() byte { return byte(rng.Intn(256)) }
	positive := 0
	for trial := 0; trial < 3000; trial++ {
		part := screenGraph(next, 5, 3, 6)
		other := screenGraph(next, 4, 3, 4)
		q := screenGraph(next, 6, 5, 8)
		if checkScreen(t, part, other, q) > 0 {
			positive++
		}
	}
	if positive < 300 {
		t.Fatalf("only %d of 3000 bounds were positive; the property is barely exercised", positive)
	}
	multi := 0
	for trial := 0; trial < 300; trial++ {
		x := screenGraph(next, 6, 3, 7)
		q := screenGraph(next, 6, 5, 8)
		m := 1 + rng.Intn(4)
		var parts []Graph
		for _, vs := range BFSPartitioner(x, m) {
			parts = append(parts, *x.InducedSubgraph(vs))
		}
		s := buildPartSigs([]*Graph{x}, parts)
		qv, qe := s.countQuery(q, nil, nil)
		sum, nonzero := 0, 0
		for i := range parts {
			if b := s.bound(i, parts[i].n, q.n, qv, qe); b > 0 {
				sum += b
				nonzero++
			}
		}
		// ged(x, q) ≥ sum ⇔ no distance within sum−1.
		if d := GEDWithin(x, q, sum-1); d >= 0 {
			t.Fatalf("%d parts: bounds sum to %d > ged %d\nx %v %v\nquery %v %v",
				m, sum, d, x.vlab, x.Edges(), q.vlab, q.Edges())
		}
		if nonzero > 1 {
			multi++
		}
	}
	if multi < 60 {
		t.Fatalf("only %d of 300 graphs had two positive part bounds; the sum is barely exercised", multi)
	}
}

// FuzzBoxScreen is TestBoxScreenAdmissible over arbitrary bytes.
func FuzzBoxScreen(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 1, 2, 3, 3, 1, 1, 2, 0, 5, 2, 2, 4, 5, 1, 6, 0, 1, 2, 3, 4, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		part := screenGraph(next, 5, 3, 6)
		other := screenGraph(next, 4, 3, 4)
		q := screenGraph(next, 6, 5, 8)
		checkScreen(t, part, other, q)
	})
}

// TestDenseIDs: over label spans from one value to the whole int32
// range, through both the table and the sort path, denseIDs returns
// the sorted distinct labels and each label's index among them.
func TestDenseIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, span := range []int64{1, 5, 40, 1 << 20, 1 << 32} {
		for trial := 0; trial < 20; trial++ {
			ls := make([]int32, rng.Intn(30))
			for i := range ls {
				ls[i] = int32(rng.Int63n(span) - span/2)
			}
			dict, ids := denseIDs(ls)
			for i := 1; i < len(dict); i++ {
				if dict[i-1] >= dict[i] {
					t.Fatalf("span %d: dict %v not sorted and distinct", span, dict)
				}
			}
			seen := make([]bool, len(dict))
			for i, l := range ls {
				if dict[ids[i]] != l {
					t.Fatalf("span %d: label %d got id %d, dict %v", span, l, ids[i], dict)
				}
				seen[ids[i]] = true
			}
			for id, ok := range seen {
				if !ok {
					t.Fatalf("span %d: dict entry %d (%d) labels nothing", span, id, dict[id])
				}
			}
		}
	}
}
