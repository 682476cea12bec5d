package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// boundGraph decodes a small graph from next: up to maxN vertices with
// labels in [0, vlabels) — the value vlabels itself standing for
// Wildcard — and an edge with a label in [0, elabels) on about half of
// the vertex pairs.
func boundGraph(next func() byte, maxN, vlabels, elabels int) *Graph {
	g := New(int(next()) % (maxN + 1))
	for v := 0; v < g.n; v++ {
		l := int32(int(next()) % (vlabels + 1))
		if l == int32(vlabels) {
			l = Wildcard
		}
		g.SetVertexLabel(v, l)
	}
	for u := 0; u < g.n; u++ {
		for v := u + 1; v < g.n; v++ {
			if b := next(); b%2 == 0 {
				g.AddEdge(u, v, int32(int(b/2)%elabels))
			}
		}
	}
	return g
}

// checkStoredBound requires the label bound a search computes for each
// graph of db to equal LabelLowerBound over freshly built multisets,
// the size bound the screen tries first never to exceed it, and the
// bound under every cap c up to the exact value to exceed c exactly
// when the exact bound does.
func checkStoredBound(t *testing.T, db *DB, q *Graph) {
	t.Helper()
	qv, qe := db.sigs.countQuery(q, nil, nil)
	ql := Labels(q)
	for id, x := range db.graphs {
		want := LabelLowerBound(Labels(x), ql, x.n, q.n, x.e, q.e)
		got := db.sigs.gedBound(id, x.n, x.e, q.n, q.e, qv, qe, math.MaxInt)
		if got != want {
			t.Fatalf("graph %d: stored bound %d, LabelLowerBound %d\nx %v %v\nquery %v %v",
				id, got, want, x.vlab, x.Edges(), q.vlab, q.Edges())
		}
		for c := 0; c <= got; c++ {
			if capped := db.sigs.gedBound(id, x.n, x.e, q.n, q.e, qv, qe, c); (capped > c) != (got > c) {
				t.Fatalf("graph %d: bound %d under cap %d, exact %d\nx %v %v\nquery %v %v",
					id, capped, c, got, x.vlab, x.Edges(), q.vlab, q.Edges())
			}
		}
		if sb := db.sizeBound(id, q); sb > got {
			t.Fatalf("graph %d: size bound %d exceeds the label bound %d\nx %v %v\nquery %v %v",
				id, sb, got, x.vlab, x.Edges(), q.vlab, q.Edges())
		}
	}
}

// crossOnlyEdgeLabel reports whether some edge label of db's graphs is
// carried by no edge inside a part, only by edges between parts.
func crossOnlyEdgeLabel(db *DB) bool {
	var inParts, all []int32
	for p := range len(db.graphs) * (db.tau + 1) {
		inParts = db.parts[p].appendEdgeLabels(inParts)
	}
	for _, x := range db.graphs {
		all = x.appendEdgeLabels(all)
	}
	for _, l := range all {
		if !slices.Contains(inParts, l) {
			return true
		}
	}
	return false
}

// labelBoundCases calls visit on 120 random corpora — Wildcard
// vertices, an edge label that is rare enough to sit only between
// parts, the empty graph and a single vertex — with each of 16 queries
// per corpus, half of them carrying labels no graph has, then with the
// empty graph and a one-vertex Wildcard graph as queries.
func labelBoundCases(t *testing.T, visit func(db *DB, q *Graph)) {
	t.Helper()
	rng := rand.New(rand.NewSource(74))
	next := func() byte { return byte(rng.Intn(256)) }
	for trial := 0; trial < 120; trial++ {
		tau := trial % 4
		graphs := make([]*Graph, 24)
		for i := range graphs {
			graphs[i] = boundGraph(next, 8, 5, 3)
		}
		// One edge label per corpus is rare: a few edges of graphs 0
		// and 1 carry it, and on some corpora none of them lies inside
		// a part.
		for _, x := range graphs[:2] {
			for _, e := range x.Edges() {
				if rng.Intn(6) == 0 {
					x.AddEdge(e.U, e.V, int32(3+trial))
				}
			}
		}
		graphs[4] = New(0)
		graphs[5] = New(1)
		graphs[6] = New(1)
		graphs[6].SetVertexLabel(0, Wildcard)
		db, err := NewDB(graphs, tau)
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < 16; qi++ {
			var q *Graph
			if qi%2 == 0 {
				// Labels 5–7 and edge labels 3–5 are foreign to the
				// corpus (3 only while trial > 0).
				q = boundGraph(next, 9, 8, 6)
			} else {
				// Graphs 0 and 1 carry the rare label, 4–6 are the
				// small ones.
				q = graphs[qi/2].Clone()
				for v := 0; v < q.n; v++ {
					switch rng.Intn(5) {
					case 0:
						q.SetVertexLabel(v, Wildcard)
					case 1:
						q.SetVertexLabel(v, 1000)
					}
				}
			}
			visit(db, q)
		}
		visit(db, New(0))
		visit(db, graphs[6])
	}
}

// TestStoredLabelBound: over labelBoundCases's corpora and queries, the
// label bound a search computes for every graph equals
// LabelLowerBound(Labels(x), Labels(q), …), so verification runs the
// exact branch-and-bound on the same candidates.
func TestStoredLabelBound(t *testing.T) {
	crossOnly, positive := 0, 0
	var last *DB
	labelBoundCases(t, func(db *DB, q *Graph) {
		if db != last {
			last = db
			if crossOnlyEdgeLabel(db) {
				crossOnly++
			}
		}
		checkStoredBound(t, db, q)
		for _, x := range db.graphs {
			if LabelLowerBound(Labels(x), Labels(q), x.n, q.n, x.e, q.e) > db.tau {
				positive++
			}
		}
	})
	if crossOnly < 15 || positive < 20000 {
		t.Fatalf("%d corpora with an edge label only between parts, %d bounds above τ; the property is barely exercised",
			crossOnly, positive)
	}
}

// TestScreenMatchesLabelBound: over labelBoundCases's corpora and
// queries, the whole-graph screen drops graph x for query q exactly
// when LabelLowerBound(Labels(x), Labels(q), …) > τ, so it never drops
// a result and keeps no graph the label bound rules out.
func TestScreenMatchesLabelBound(t *testing.T) {
	kept, bySize, byLabels := 0, 0, 0
	labelBoundCases(t, func(db *DB, q *Graph) {
		s := &searchScratch{}
		s.qv, s.qe = db.sigs.countQuery(q, nil, nil)
		ql := Labels(q)
		for id, x := range db.graphs {
			lb := LabelLowerBound(Labels(x), ql, x.n, q.n, x.e, q.e)
			if dropped := !db.screened(s, id, q); dropped != (lb > db.tau) {
				t.Fatalf("τ %d, graph %d: screen drops it: %v, LabelLowerBound %d\nx %v %v\nquery %v %v",
					db.tau, id, dropped, lb, x.vlab, x.Edges(), q.vlab, q.Edges())
			}
			switch {
			case lb <= db.tau:
				kept++
			case db.sizeBound(id, q) > db.tau:
				bySize++
			default:
				byLabels++
			}
		}
	})
	if kept < 4000 || bySize < 20000 || byLabels < 2000 {
		t.Fatalf("%d graphs kept, %d dropped by size, %d only by labels; the screen is barely exercised",
			kept, bySize, byLabels)
	}
}

// FuzzGraphBound is TestStoredLabelBound over arbitrary bytes: a small
// corpus and a query decoded from the input.
func FuzzGraphBound(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 4, 1, 2, 5, 0, 6, 2, 4, 8, 3, 1, 0, 5, 2, 7, 9, 4, 1, 2, 3, 6, 0, 2, 8, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		graphs := make([]*Graph, 1+int(next())%4)
		tau := int(next()) % 4
		for i := range graphs {
			graphs[i] = boundGraph(next, 6, 4, 4)
		}
		q := boundGraph(next, 7, 6, 6)
		db, err := NewDB(graphs, tau)
		if err != nil {
			t.Fatal(err)
		}
		checkStoredBound(t, db, q)
	})
}

// TestStoredPartsEmbed: for every stored part of random DBs, the
// entry the box screen calls and SubgraphIsomorphic both answer what
// brute force does on the part induced afresh from its graph's
// BFSPartitioner groups, which the stored part must match in size and
// labels.
func TestStoredPartsEmbed(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	next := func() byte { return byte(rng.Intn(256)) }
	ks := new(kernelScratch)
	embeds, not := 0, 0
	for tau := 0; tau <= 3; tau++ {
		m := tau + 1
		graphs := make([]*Graph, 40)
		for i := range graphs {
			graphs[i] = screenGraph(next, 9, 3, 12)
		}
		db, err := NewDB(graphs, tau)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 30; trial++ {
			q := screenGraph(next, 9, 4, 16)
			for id, x := range graphs {
				for i, vs := range BFSPartitioner(x, m) {
					p := id*m + i
					fresh, part := x.InducedSubgraph(vs), &db.parts[p]
					if part.n != fresh.n || part.e != fresh.e ||
						!slices.Equal(Labels(part).vlabels, Labels(fresh).vlabels) ||
						!slices.Equal(Labels(part).elabels, Labels(fresh).elabels) {
						t.Fatalf("τ %d: part %d of graph %d stored as %v %v, induced %v %v",
							tau, i, id, part.vlab, part.Edges(), fresh.vlab, fresh.Edges())
					}
					want := refSubIso(fresh, q)
					if got := SubgraphIsomorphic(part, q); got != want {
						t.Fatalf("τ %d: SubgraphIsomorphic says stored part %d of graph %d embeds %v, brute force %v", tau, i, id, got, want)
					}
					if got := ks.embeds(part, q); got != want {
						t.Fatalf("τ %d: part %d of graph %d: box entry says %v, SubgraphIsomorphic %v\npart %v %v\nquery %v %v",
							tau, i, id, got, want, part.vlab, part.Edges(), q.vlab, q.Edges())
					}
					if want {
						embeds++
					} else {
						not++
					}
				}
			}
		}
	}
	if embeds < 1000 || not < 1000 {
		t.Fatalf("%d parts embed, %d do not; the entry is barely exercised", embeds, not)
	}
}
