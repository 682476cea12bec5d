package setsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/tokenset"
)

// refIndex is the straightforward formulation the kernel replaced, kept
// as the parity reference: map-keyed postings, the set read for every
// size and orientation decision, float thresholds checked through
// core.Filter, and a token merge for every candidate. Equal results and
// equal work counters against it prove the CSR arena, the {px, last}
// record, the size slot, the integer chain check and the box-sum bound
// changed where the bytes live and nothing else.
type refIndex struct {
	cfg  Config
	sets []tokenset.Set
	px   []int
	post map[int32][]int32
}

func newRefIndex(sets []tokenset.Set, cfg Config) *refIndex {
	r := &refIndex{cfg: cfg, sets: sets, px: make([]int, len(sets)), post: map[int32][]int32{}}
	cnt := make([]int, cfg.M)
	for id, x := range sets {
		r.px[id], _ = cfg.prefixInfo(x, cfg.minThreshold(len(x)), cnt)
		for _, tok := range x[:r.px[id]] {
			r.post[tok] = append(r.post[tok], int32(id))
		}
	}
	return r
}

// search answers q over ids in [wlo, whi) and reports the work done.
func (r *refIndex) search(q tokenset.Set, l int, verify bool, wlo, whi int) ([]int, Stats) {
	var st Stats
	cfg, m := r.cfg, r.cfg.M
	wlo, whi = max(wlo, 0), min(whi, len(r.sets))
	if wlo >= whi {
		return nil, st
	}
	l = min(max(l, 1), m)
	cnt := make([]int, m)
	pq, shortfall := cfg.prefixInfo(q, cfg.minThreshold(len(q)), cnt)
	if pq == 0 {
		return nil, st
	}
	t := make([]float64, m)
	t[0] = float64(len(q) - pq + 1 - shortfall)
	for k := 1; k < m; k++ {
		if cnt[k] >= k {
			t[k] = float64(k)
		} else {
			t[k] = float64(cnt[k] + 1)
		}
	}
	filter := core.NewIntegerReduction(t, l, core.GE)
	lo, hi := cfg.sizeBounds(len(q))

	counts := map[int32][]float64{}
	var touched []int32
	for _, tok := range q[:pq] {
		k := cfg.classOf(tok)
		for _, id := range r.post[tok] {
			if int(id) < wlo || int(id) >= whi {
				continue
			}
			st.Probes++
			if sz := len(r.sets[id]); sz < lo || sz > hi {
				continue
			}
			if counts[id] == nil {
				counts[id] = make([]float64, m)
				touched = append(touched, id)
			}
			counts[id][k]++
		}
	}
	st.Touched = len(touched)

	var out []int
	for _, id := range touched {
		x, boxes := r.sets[id], core.Boxes(counts[id])
		classViable := false
		for k := 1; k < m; k++ {
			classViable = classViable || boxes[k] >= t[k]
		}
		if px := r.px[id]; x[px-1] <= q[pq-1] {
			boxes[0] = float64(min(len(x)-px, len(q)))
		} else {
			boxes[0] = float64(min(len(q)-pq, len(x)))
		}
		if !classViable && boxes[0] < t[0] {
			continue
		}
		if l > 1 {
			st.BoxChecks += m
			if !filter.HasPrefixViableChain(boxes) {
				continue
			}
		}
		st.Candidates++
		if verify && tokenset.OverlapAtLeast(x, q, cfg.pairThreshold(len(x), len(q))) {
			out = append(out, int(id))
		}
	}
	slices.Sort(out)
	st.Results = len(out)
	return out, st
}

// kernelCorpus returns a planted-duplicate corpus whose tokens are
// pushed through remap (strictly increasing, so sets stay sorted), plus
// tiny sets, which exercise the coverage shortfall, and an empty one.
func kernelCorpus(rng *rand.Rand, remap func(int32) int32) []tokenset.Set {
	sets := genSets(rng, 140, 10, 160)
	for i := 0; i < 12; i++ {
		sets = append(sets, slices.Clone(sets[rng.Intn(100)][:i%4]))
	}
	for _, s := range sets {
		for i := range s {
			s[i] = remap(s[i])
		}
	}
	return sets
}

// giantSets are two sets beyond the count row's 16-bit size slot, so
// the filter must fall back to their exact sizes, placed where only
// the exact sizes give the right answer: they share 58 500 tokens,
// Jaccard 0.7995 — 20 tokens short of 0.8 at sizes 65 635 and 66 035,
// but past it if either is taken for sizeClamp.
func giantSets() []tokenset.Set {
	const shared = 58500
	a := make(tokenset.Set, 0, sizeClamp+100)
	b := make(tokenset.Set, 0, sizeClamp+500)
	for tok := int32(0); len(b) < cap(b); tok++ {
		if tok < shared || tok%2 == 0 && len(a) < cap(a) {
			a = append(a, tok)
		}
		if tok < shared || tok%2 == 1 {
			b = append(b, tok)
		}
	}
	return []tokenset.Set{a, b}
}

// TestKernelParity drives every entry point of the unified probe body —
// Search, SearchSim, CountCandidates, SearchRangeAppend over full,
// random, empty and clamped windows — against both the linear scan and
// refIndex, requiring identical ids and identical Candidates, Probes,
// Touched and BoxChecks.
func TestKernelParity(t *testing.T) {
	universes := []struct {
		name   string
		remap  func(int32) int32
		giants bool
	}{
		{"dense", func(tok int32) int32 { return tok }, true},
		{"negative", func(tok int32) int32 { return tok - 90 }, false},
		// ±2³⁰ over ~160 distinct tokens: the direct offset table would
		// dwarf the arena, which forces the sorted-token slot path.
		{"sparse", func(tok int32) int32 { return -(1 << 30) + tok*13_000_000 }, false},
	}
	measures := []Config{
		{Measure: Jaccard, Tau: 0.8},
		{Measure: Jaccard, Tau: 0.55},
		{Measure: Overlap, Tau: 3},
	}
	rng := rand.New(rand.NewSource(2207))
	for _, u := range universes {
		sets := kernelCorpus(rand.New(rand.NewSource(2207)), u.remap)
		if u.giants {
			sets = append(sets, giantSets()...)
		}
		for _, cfg := range measures {
			for _, m := range []int{2, 3, 5, 8} {
				cfg.M = m
				cfg.Class = nil
				if m == 5 {
					cfg.Class = func(tok int32) int { return int(uint32(tok)>>3%4) + 1 }
				}
				name := fmt.Sprintf("%s/measure%d/tau%v/M%d", u.name, cfg.Measure, cfg.Tau, m)
				db, err := NewPKWiseDB(sets, cfg)
				if u.giants && cfg.Measure == Overlap && m == 2 {
					// A giant's one-class prefix overflows the 16-bit class counts: the build rejects it.
					var cce *classCountError
					if !errors.As(err, &cce) {
						t.Fatalf("%s: err = %v, want a classCountError", name, err)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if direct := db.toks == nil; u.name != "dense" && direct != (u.name == "negative") {
					t.Fatalf("%s: direct addressing = %v", name, direct)
				}
				ref := newRefIndex(sets, cfg)
				queries := []tokenset.Set{nil, {u.remap(7)}}
				for i := 0; i < 8; i++ {
					queries = append(queries, sets[rng.Intn(len(sets))])
				}
				if u.giants {
					// Under Jaccard τ = 0.8 the second query's size window ends
					// at 65 625: it admits sizeClamp and excludes both giants.
					queries = append(queries, sets[len(sets)-1], sets[len(sets)-1][:52500])
				}
				for _, q := range queries {
					for _, l := range []int{1, 2, m} {
						checkKernelQuery(t, name, db, ref, rng, q, l)
					}
				}
			}
		}
	}
}

func checkKernelQuery(t *testing.T, name string, db *PKWiseDB, ref *refIndex, rng *rand.Rand, q tokenset.Set, l int) {
	t.Helper()
	n := db.Len()
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("%s |q|=%d l=%d: %s = %v, want %v", name, len(q), l, what, got, want)
	}
	want, wst := ref.search(q, l, true, 0, n)
	if lin := SearchLinear(ref.sets, q, ref.cfg); !slices.Equal(want, lin) {
		fail("reference ids", want, lin)
	}

	ids, st, err := db.Search(q, l)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ids, want) || st != wst {
		fail("Search", fmt.Sprint(ids, st), fmt.Sprint(want, wst))
	}

	simIDs, sims, sst, err := db.SearchSim(q, l)
	if err != nil {
		t.Fatal(err)
	}
	if sst != wst || len(sims) != len(simIDs) {
		fail("SearchSim stats", sst, wst)
	}
	for i, id := range simIDs {
		o := tokenset.Overlap(db.Set(id), q)
		sim := float64(o)
		if db.cfg.Measure == Jaccard {
			sim = float64(o) / float64(len(db.Set(id))+len(q)-o)
		}
		if sims[i] != sim {
			fail(fmt.Sprintf("similarity of %d", id), sims[i], sim)
		}
	}
	slices.Sort(simIDs)
	if !slices.Equal(simIDs, want) {
		fail("SearchSim ids", simIDs, want)
	}

	_, cst := ref.search(q, l, false, 0, n)
	if got, err := db.CountCandidates(q, l); err != nil || got != cst {
		fail("CountCandidates", fmt.Sprint(got, err), cst)
	}

	windows := [][2]int{{0, n}, {-3, n + 9}, {n / 2, n / 2}, {n, 0}}
	for i := 0; i < 3; i++ {
		windows = append(windows, [2]int{rng.Intn(n), rng.Intn(n + 1)})
	}
	for _, w := range windows {
		for _, skip := range []bool{false, true} {
			rids, rst := ref.search(q, l, !skip, w[0], w[1])
			// Statistics accumulate, and dst's prefix is the caller's.
			st := Stats{Candidates: 5, Results: 4, Probes: 3, Touched: 2, BoxChecks: 1}
			got, err := db.SearchRangeAppend(q, l, skip, w[0], w[1], []int64{-7}, &st)
			if err != nil {
				t.Fatal(err)
			}
			st.Candidates, st.Results, st.Probes = st.Candidates-5, st.Results-4, st.Probes-3
			st.Touched, st.BoxChecks = st.Touched-2, st.BoxChecks-1
			if st != rst {
				fail(fmt.Sprintf("window %v skip=%v stats", w, skip), st, rst)
			}
			if len(got) != len(rids)+1 || got[0] != -7 {
				fail(fmt.Sprintf("window %v skip=%v ids", w, skip), got, rids)
			}
			for i, id := range rids {
				if got[i+1] != int64(id) {
					fail(fmt.Sprintf("window %v skip=%v ids", w, skip), got[1:], rids)
				}
			}
		}
	}
}

// TestScratchReuseKeepsSizes pins the pooled-scratch contract: reset
// clears a touched row's class overlaps and nothing else. Every search
// after the first on one scratch must still see each set's size in
// slot 0 — were it cleared, the size window would silently drop every
// posting of the ids the first search touched.
func TestScratchReuseKeepsSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sets := genSets(rng, 200, 12, 150)
	cfg := Config{Measure: Jaccard, Tau: 0.6, M: 5}
	db, err := NewPKWiseDB(sets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefIndex(sets, cfg)
	s := db.getScratch()
	results := 0
	for round := 0; round < 3; round++ {
		for qi := 0; qi < 40; qi++ {
			q := sets[qi*5]
			var st Stats
			if err := db.filter(s, q, 2, true, false, 0, len(sets), &st); err != nil {
				t.Fatal(err)
			}
			got := slices.Clone(s.results)
			slices.Sort(got)
			want, wst := ref.search(q, 2, true, 0, len(sets))
			if !slices.Equal(got, want) || st != wst {
				t.Fatalf("round %d q%d: got %v %+v, want %v %+v", round, qi, got, st, want, wst)
			}
			results += len(got)
			s.reset(cfg.M)
		}
	}
	if results < 3*40 {
		t.Fatalf("only %d results: the workload does not exercise reuse", results)
	}
	for id, x := range sets {
		row := s.counts[id*cfg.M:][:cfg.M]
		if int(row[0]) != len(x) || !countsRowEmpty(row[1:]) {
			t.Fatalf("row %d after reset = %v, want size %d and zero overlaps", id, row, len(x))
		}
	}
	db.putScratch(s)
}

// TestBoxSumBound: on arbitrary pairs — in or out of the size window,
// similar or not — the class overlaps between the two prefixes plus the
// orientation rule's suffix bound never undercount the true overlap,
// which is what lets verification reject on the sum alone. The bound
// must also be attained somewhere: weakening suffixBound by one then
// fails this test rather than silently dropping results.
func TestBoxSumBound(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	attained := 0
	for trial := 0; trial < 6; trial++ {
		sets := genSets(rng, 120, 9, 60+40*trial)
		cfg := Config{Measure: Jaccard, Tau: 0.5 + 0.08*float64(trial), M: 2 + trial}
		if trial%2 == 1 {
			cfg = Config{Measure: Overlap, Tau: float64(1 + trial), M: 2 + trial}
		}
		db, err := NewPKWiseDB(sets, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := db.getScratch()
		for pair := 0; pair < 4000; pair++ {
			id, q := rng.Intn(len(sets)), sets[rng.Intn(len(sets))]
			x, me := sets[id], db.meta[id]
			plan, ok := db.plan(q, s)
			if !ok || me.px == 0 {
				continue
			}
			bound := tokenset.Overlap(x[:me.px], q[:plan.pq]) + plan.suffixBound(me, len(x))
			overlap := tokenset.Overlap(x, q)
			if bound < overlap {
				t.Fatalf("cfg=%+v x=%v q=%v: bound %d < overlap %d", cfg, x, q, bound, overlap)
			}
			if bound == overlap {
				attained++
			}
		}
		db.putScratch(s)
	}
	if attained == 0 {
		t.Fatal("the bound is never tight: the test cannot catch a weakened suffix bound")
	}
}

// TestClassCountOverflowRejected: a set whose prefix holds more than
// 65 535 tokens of one class would wrap the 16-bit class overlaps, so
// the build rejects it with a classCountError.
func TestClassCountOverflowRejected(t *testing.T) {
	big := make(tokenset.Set, math.MaxUint16+10)
	for i := range big {
		big[i] = int32(i)
	}
	cfg := Config{Measure: Overlap, Tau: 1, M: 4, Class: func(int32) int { return 3 }}
	_, err := NewPKWiseDB([]tokenset.Set{{1, 2, 3}, big}, cfg)
	var cce *classCountError
	if !errors.As(err, &cce) || cce.set != 1 || cce.class != 3 {
		t.Fatalf("err = %v, want a classCountError for set 1, class 3", err)
	}
	cfg.Class = nil // the hash spreads the same set over three classes
	if _, err := NewPKWiseDB([]tokenset.Set{{1, 2, 3}, big}, cfg); err != nil {
		t.Fatalf("balanced classes rejected: %v", err)
	}
}
