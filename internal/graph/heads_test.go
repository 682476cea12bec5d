package graph

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// checkHeadIndex requires every part to sit on exactly one list, each
// list to be ascending, and a part to be on the last list exactly when
// it has no non-Wildcard vertex label.
func checkHeadIndex(t *testing.T, db *DB) {
	t.Helper()
	h := &db.heads
	nparts := len(db.graphs) * (db.tau + 1)
	if len(h.parts) != nparts || int(h.off[len(h.off)-1]) != nparts {
		t.Fatalf("%d postings, %d parts", len(h.parts), nparts)
	}
	seen := make([]bool, nparts)
	for k := 0; k+1 < len(h.off); k++ {
		list := h.parts[h.off[k]:h.off[k+1]]
		if !slices.IsSorted(list) {
			t.Fatalf("list %d not ascending: %v", k, list)
		}
		for _, p := range list {
			if seen[p] {
				t.Fatalf("part %d on two lists", p)
			}
			seen[p] = true
			labeled := db.sigs.off[2*p] < db.sigs.off[2*p+1]
			if last := k == len(h.off)-2; last == labeled {
				t.Fatalf("part %d (labeled %v) on list %d of %d", p, labeled, k, len(h.off)-1)
			}
		}
	}
}

// TestHeadIndexCoversHeads: for random DBs — Wildcard vertices, graphs
// smaller than τ+1 (empty parts), queries with labels no graph carries
// — and random id windows, mark sets the bit of every part in the
// window whose label bound is 0, sets no bit outside the window, and
// reads one posting per bit it sets.
func TestHeadIndexCoversHeads(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	next := func() byte { return byte(rng.Intn(256)) }
	skipped, always := 0, 0
	for tau := 0; tau <= 3; tau++ {
		m := tau + 1
		graphs := make([]*Graph, 60)
		for i := range graphs {
			graphs[i] = screenGraph(next, 7, 6, 8)
		}
		db, err := NewDB(graphs, tau)
		if err != nil {
			t.Fatal(err)
		}
		checkHeadIndex(t, db)
		always += int(db.heads.off[len(db.heads.off)-1] - db.heads.off[len(db.heads.off)-2])
		for trial := 0; trial < 100; trial++ {
			q := screenGraph(next, 7, 9, 10)
			qv, qe := db.sigs.countQuery(q, nil, nil)
			lo, hi := 0, len(graphs)
			if trial%2 == 1 {
				lo = rng.Intn(len(graphs))
				hi = lo + rng.Intn(len(graphs)-lo+1)
			}
			marks := make([]uint64, ((hi-lo)*m+63)/64+1)
			probes := db.heads.mark(qv, lo*m, hi*m, marks)
			set := 0
			for w, word := range marks {
				for ; word != 0; word &= word - 1 {
					if b := w*64 + bits.TrailingZeros64(word); b >= (hi-lo)*m {
						t.Fatalf("τ %d window [%d, %d): bit %d past the window", tau, lo, hi, b)
					}
					set++
				}
			}
			if probes != set {
				t.Fatalf("τ %d: %d probes set %d bits", tau, probes, set)
			}
			for id := lo; id < hi; id++ {
				for i := range m {
					part := &db.parts[id*m+i]
					b := (id-lo)*m + i
					marked := marks[b>>6]&(1<<(b&63)) != 0
					if !marked && db.sigs.bound(id*m+i, part.n, q.n, qv, qe) == 0 {
						t.Fatalf("τ %d: part %d of graph %d has bound 0 but is not marked\npart %v %v\nquery %v %v",
							tau, i, id, part.vlab, part.Edges(), q.vlab, q.Edges())
					}
					if !marked {
						skipped++
					}
				}
			}
		}
	}
	if skipped < 1000 || always < 20 {
		t.Fatalf("%d parts skipped, %d on the always-probed list; the index is barely exercised", skipped, always)
	}
}

// TestNewDBPartIDOverflow: a corpus whose parts do not fit int32 part
// ids is refused before any graph is read (the graphs here are nil).
func TestNewDBPartIDOverflow(t *testing.T) {
	graphs := make([]*Graph, 2_100_000) // × (MaxTau+1) parts > MaxInt32
	if _, err := NewDB(graphs, MaxTau); err == nil {
		t.Fatal("NewDB accepted 2.1 M graphs at τ = MaxTau")
	}
}

// FuzzHeadIndex: on a small DB decoded from the input, Search and
// SearchRangeAppend over a window answer exactly what SearchLinear
// does, for Pars and for Ring(l).
func FuzzHeadIndex(f *testing.F) {
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
