package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// moleculeCorpus generates AIDS-like labeled graphs with planted
// near-duplicates.
func moleculeCorpus(rng *rand.Rand, n, minV, maxV, vlabels, elabels int) []*Graph {
	out := make([]*Graph, n)
	for i := range out {
		nv := minV + rng.Intn(maxV-minV+1)
		g := New(nv)
		for v := 0; v < nv; v++ {
			g.SetVertexLabel(v, int32(rng.Intn(vlabels)))
		}
		// Spanning-tree-ish connectivity plus a few extra edges.
		for v := 1; v < nv; v++ {
			g.AddEdge(v, rng.Intn(v), int32(rng.Intn(elabels)))
		}
		extra := rng.Intn(nv/2 + 1)
		for e := 0; e < extra; e++ {
			u, v := rng.Intn(nv), rng.Intn(nv)
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v, int32(rng.Intn(elabels)))
			}
		}
		out[i] = g
	}
	// Near-duplicates: copy an earlier graph and perturb a little.
	for i := n / 2; i < n; i += 3 {
		g := out[rng.Intn(n/2)].Clone()
		edits := rng.Intn(3)
		for e := 0; e < edits; e++ {
			switch rng.Intn(2) {
			case 0:
				g.SetVertexLabel(rng.Intn(g.N()), int32(rng.Intn(vlabels)))
			default:
				es := g.Edges()
				if len(es) > 1 {
					ed := es[rng.Intn(len(es))]
					g.RemoveEdge(ed.U, ed.V)
				}
			}
		}
		out[i] = g
	}
	return out
}

// TestExactness: Pars and Ring return exactly the linear-scan results.
func TestExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	graphs := moleculeCorpus(rng, 120, 5, 10, 6, 2)
	for _, tau := range []int{1, 2, 3} {
		db, err := NewDB(graphs, tau)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 12; trial++ {
			q := graphs[rng.Intn(len(graphs))]
			want := db.SearchLinear(q)
			for _, opt := range []Options{ParsOptions(), RingOptions(2), RingOptions(tau), RingOptions(tau + 1)} {
				got, _, err := db.Search(q, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !equalInts(got, want) {
					t.Fatalf("τ=%d opt=%+v: got %v want %v", tau, opt, got, want)
				}
			}
		}
	}
}

// TestRingCandidateSubset: ring candidates never exceed Pars candidates
// and shrink with chain length.
func TestRingCandidateSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	graphs := moleculeCorpus(rng, 200, 6, 12, 4, 2)
	const tau = 3
	db, err := NewDB(graphs, tau)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 8; trial++ {
		q := graphs[rng.Intn(len(graphs))]
		prev := -1
		for l := 1; l <= tau+1; l++ {
			_, st, err := db.Search(q, RingOptions(l))
			if err != nil {
				t.Fatal(err)
			}
			if prev >= 0 && st.Candidates > prev {
				t.Fatalf("candidates grew at l=%d: %d -> %d", l, prev, st.Candidates)
			}
			prev = st.Candidates
			if st.Results > st.Candidates {
				t.Fatalf("results %d > candidates %d", st.Results, st.Candidates)
			}
		}
	}
}

// TestPaperExample12Scenario captures the behaviour of §6.4 Example 12:
// a molecule-like data graph whose first part embeds into the query
// (so Pars's partition filter admits it) but whose ged exceeds τ = 2.
// Against q the second part's label bound is 1, within the l = 2
// chain's budget, so Ring(2)'s chain keeps the false positive; against
// q2, which also lacks the S, that bound is 2 and the chain filters it.
// The chains are checked on db.chain directly: a search screens the
// whole graph first, and x's GED label bound, 3 against q and 4
// against q2, drops it there, before any chain.
func TestPaperExample12Scenario(t *testing.T) {
	const (
		lS int32 = 0
		lC int32 = 1
		lP int32 = 2
		lO int32 = 3
		lN int32 = 4
	)
	// x: C-C core, with a S-P tail off the S and an O off the core.
	x := molecule(
		[]int32{lC, lC, lS, lP, lO},
		[][3]int32{{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {1, 4, 0}},
	)
	// q: keeps the C-C core but the S hangs on a different bond label,
	// P is gone (an N and a C appear instead).
	q := molecule(
		[]int32{lC, lC, lS, lN, lC},
		[][3]int32{{0, 1, 0}, {1, 2, 1}, {1, 3, 0}, {1, 4, 0}},
	)
	// q2: q with the S replaced by an N as well.
	q2 := molecule(
		[]int32{lC, lC, lN, lN, lC},
		[][3]int32{{0, 1, 0}, {1, 2, 1}, {1, 3, 0}, {1, 4, 0}},
	)
	const tau = 2
	for _, query := range []*Graph{q, q2} {
		if d := GED(x, query); d <= tau {
			t.Fatalf("scenario needs ged > τ, got %d", d)
		}
	}
	// Fix the partition: part 0 = the C-C core (embeds into q and q2),
	// part 1 = {S, P}, part 2 = {O}.
	parts := func(g *Graph, m int) [][]int {
		if g == x && m == 3 {
			return [][]int{{0, 1}, {2, 3}, {4}}
		}
		return BFSPartitioner(g, m)
	}
	db, err := newDBWithPartitioner([]*Graph{x}, tau, parts)
	if err != nil {
		t.Fatal(err)
	}
	// Ring(2)'s only chain starts at box 0 = 0 (parts 1 and 2 do not
	// embed) and may spend ⌊2·τ/m⌋ = 1 on box 1. Box 1 takes its label
	// bound. Against q that bound is 1, for the missing P, although
	// MinDeletionOps reads 2: the S–P bond has no counterpart in q
	// either, but an edge-label count cannot see which vertices a bond
	// joins. So Ring(2) keeps x. Against q2 the S is missing too, the
	// bound is 2 and the chain fails.
	for _, c := range []struct {
		name     string
		q        *Graph
		ringCand int
		bound    int
	}{
		{"q", q, 1, 3},
		{"q2", q2, 0, 4},
	} {
		// Part 0 embeds: Pars keeps x as a candidate.
		if !SubgraphIsomorphic(x.InducedSubgraph([]int{0, 1}), c.q) {
			t.Fatalf("%s: part 0 should embed", c.name)
		}
		if got := chainCandidates(db, c.q, 1); got != 1 {
			t.Errorf("%s: Pars candidates = %d, want 1 (false positive)", c.name, got)
		}
		if got := chainCandidates(db, c.q, 2); got != c.ringCand {
			t.Errorf("%s: Ring(2) candidates = %d, want %d", c.name, got, c.ringCand)
		}
		// The screen drops x before any chain runs.
		if lb := LabelLowerBound(Labels(x), Labels(c.q), x.n, c.q.n, x.e, c.q.e); lb != c.bound {
			t.Errorf("%s: label bound %d, want %d", c.name, lb, c.bound)
		}
		for _, opt := range []Options{ParsOptions(), RingOptions(2)} {
			res, st, err := db.Search(c.q, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != 0 || st.Candidates != 0 || st.BoxChecks != 0 {
				t.Errorf("%s %+v: %v, %d candidates, %d box checks; want x dropped at the screen",
					c.name, opt, res, st.Candidates, st.BoxChecks)
			}
		}
	}
}

// chainCandidates counts the graphs of db with a passing chain of
// length l against q — the filter a search applies past its
// whole-graph screen.
func chainCandidates(db *DB, q *Graph, l int) int {
	s := &searchScratch{ks: new(kernelScratch)}
	s.qv, s.qe = db.sigs.countQuery(q, nil, nil)
	var st Stats
	n := 0
	for id := range db.graphs {
		if db.anyChain(s, id, l, q, &st) {
			n++
		}
	}
	return n
}

func TestBFSPartitioner(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 60; trial++ {
		g := randomGraph(rng, 1+rng.Intn(15), 3, 2, 0.3)
		m := 1 + rng.Intn(6)
		parts := BFSPartitioner(g, m)
		if len(parts) != m {
			t.Fatalf("got %d parts, want %d", len(parts), m)
		}
		seen := make([]bool, g.N())
		total := 0
		for _, p := range parts {
			for _, v := range p {
				if seen[v] {
					t.Fatal("vertex in two parts")
				}
				seen[v] = true
				total++
			}
		}
		if total != g.N() {
			t.Fatalf("parts cover %d of %d vertices", total, g.N())
		}
	}
}

func TestDBValidation(t *testing.T) {
	if _, err := NewDB(nil, -1); err == nil {
		t.Error("negative τ should fail")
	}
	if _, err := NewDB(nil, MaxTau+1); err == nil {
		t.Error("τ above MaxTau should fail")
	}
	if _, err := NewDB([]*Graph{New(3), New(MaxVertices + 1)}, 1); err == nil {
		t.Error("a graph above MaxVertices should fail")
	}
	// At τ 0 the whole edgeless graph is one part, the largest match
	// order a build computes.
	if _, err := NewDB([]*Graph{New(MaxVertices)}, 0); err != nil {
		t.Errorf("a graph of MaxVertices vertices should load: %v", err)
	}
	bad := func(g *Graph, m int) [][]int { return make([][]int, m+1) }
	if _, err := newDBWithPartitioner([]*Graph{New(3)}, 1, bad); err == nil {
		t.Error("wrong group count should fail")
	}
	uncovering := func(g *Graph, m int) [][]int { return make([][]int, m) }
	if _, err := newDBWithPartitioner([]*Graph{New(3)}, 1, uncovering); err == nil {
		t.Error("non-covering partition should fail")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestNewDBPartIDOverflow: a corpus of more than MaxInt32 parts is
// refused before any graph is read (the graphs here are nil). No part
// id is an int32, so the refusal bounds the part arrays' allocation.
func TestNewDBPartIDOverflow(t *testing.T) {
	graphs := make([]*Graph, 2_100_000) // × (MaxTau+1) parts > MaxInt32
	if _, err := NewDB(graphs, MaxTau); err == nil {
		t.Fatal("NewDB accepted 2.1 M graphs at τ = MaxTau")
	}
}

// FuzzSearchRange: on a small DB decoded from the input, Search and
// SearchRangeAppend over a window answer exactly what SearchLinear
// does, for Pars and for Ring(l).
func FuzzSearchRange(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 2, 1, 3, 4, 0, 1, 2, 3, 2, 1, 0, 4, 3, 3, 2, 2, 1, 1, 0, 5, 4, 3, 2, 1, 0, 1, 2, 3, 7, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		graphs := make([]*Graph, 1+int(next())%10)
		tau := int(next()) % 3
		opt := ParsOptions()
		if l := int(next()) % (tau + 2); l > 0 {
			opt = RingOptions(l)
		}
		lo, hi := int(next())%(len(graphs)+1), int(next())%(len(graphs)+1)
		for i := range graphs {
			graphs[i] = screenGraph(next, 5, 3, 6)
		}
		q := screenGraph(next, 6, 5, 8)
		db, err := NewDB(graphs, tau)
		if err != nil {
			t.Fatal(err)
		}
		want := db.SearchLinear(q)
		got, _, err := db.Search(q, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("τ %d %+v: Search %v, SearchLinear %v", tau, opt, got, want)
		}
		var st Stats
		win, err := db.SearchRangeAppend(q, opt, lo, hi, nil, &st)
		if err != nil {
			t.Fatal(err)
		}
		var wantWin []int64
		for _, id := range want {
			if id >= lo && id < hi {
				wantWin = append(wantWin, int64(id))
			}
		}
		if !slices.Equal(win, wantWin) {
			t.Fatalf("τ %d %+v window [%d, %d): %v, want %v", tau, opt, lo, hi, win, wantWin)
		}
	})
}
