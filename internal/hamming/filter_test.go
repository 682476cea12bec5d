package hamming

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/bitvec"
)

// refIndex is the straightforward GPH/Ring filter the kernel is checked
// against: per-part maps from value to ascending ids, bitvec's closure
// enumeration, and every box of every chain — the first included —
// evaluated with Partitioning.PartDistance on whole vectors.
type refIndex struct {
	vecs []bitvec.Vector
	part bitvec.Partitioning
	post []map[uint64][]int
}

func newRefIndex(vecs []bitvec.Vector, m int) *refIndex {
	r := &refIndex{vecs: vecs, part: bitvec.NewEqualPartitioning(vecs[0].Dim(), m)}
	r.post = make([]map[uint64][]int, m)
	for i := range r.post {
		r.post[i] = make(map[uint64][]int)
		for id, v := range vecs {
			val := r.part.Extract(v, i)
			r.post[i][val] = append(r.post[i][val], id)
		}
	}
	return r
}

// search runs the filter over ids in [lo, hi) under the thresholds t.
// Stats.BoxChecks counts the boxes evaluated after the first of each
// chain, which is what the kernel must report.
func (r *refIndex) search(t *testing.T, q bitvec.Vector, tau int, thr []int, opt Options, lo, hi int) ([]int, Stats) {
	t.Helper()
	m := r.part.M()
	l := min(max(opt.ChainLength, 1), m)
	slack := 1
	if opt.NoIntegerReduction {
		slack = 0
	}
	var st Stats
	var results []int
	accepted := make(map[int]bool)
	for i := 0; i < m; i++ {
		if thr[i] < 0 {
			continue
		}
		bitvec.EnumerateBall(r.part.Extract(q, i), r.part.Width(i), thr[i], func(u uint64) {
			st.Enumerated++
			for _, id := range r.post[i][u] {
				if id < lo || id >= hi {
					continue
				}
				st.Probes++
				if accepted[id] {
					continue
				}
				sum, quota, viable := 0, 0, true
				for lp := 1; lp <= l && viable; lp++ {
					k := (i + lp - 1) % m
					sum += r.part.PartDistance(r.vecs[id], q, k)
					quota += thr[k]
					viable = sum <= quota+(lp-1)*slack
					if lp > 1 {
						st.BoxChecks++
					} else if !viable {
						t.Fatalf("first box of a probed posting failed: b=%d > t=%d", sum, thr[i])
					}
				}
				if !viable {
					continue
				}
				accepted[id] = true
				st.Candidates++
				if !opt.SkipVerify && bitvec.Hamming(r.vecs[id], q) <= tau {
					results = append(results, id)
				}
			}
		})
	}
	slices.Sort(results)
	st.Results = len(results)
	return results, st
}

// clusteredVectors draws n vectors around a few centers so that small
// thresholds have results and part values repeat.
func clusteredVectors(rng *rand.Rand, n, d int) []bitvec.Vector {
	centers := make([]bitvec.Vector, 5)
	for i := range centers {
		centers[i] = bitvec.Random(rng, d)
	}
	vecs := make([]bitvec.Vector, n)
	for i := range vecs {
		if i%4 == 0 {
			vecs[i] = bitvec.Random(rng, d)
			continue
		}
		v := centers[rng.Intn(len(centers))].Clone()
		for f := rng.Intn(6); f > 0; f-- {
			v.Flip(rng.Intn(d))
		}
		vecs[i] = v
	}
	return vecs
}

// TestFilterParity sweeps the unified search body over every layout and
// option branch — direct, hashed and word-straddling parts, dimensions
// off the word grid, chain lengths from 1 to m, both allocators, with
// and without integer reduction and verification, full and windowed —
// and requires the linear scan's results and the reference filter's
// exact work counts from each.
func TestFilterParity(t *testing.T) {
	geoms := []struct {
		d, m, n int
		taus    []int
	}{
		{64, 8, 300, []int{0, 3, 9, 16}},     // 8-bit parts: direct
		{128, 2, 300, []int{0, 1, 2}},        // 64-bit parts: hashed
		{64, 1, 300, []int{0, 2}},            // one 64-bit part
		{100, 7, 300, []int{0, 5, 12}},       // 14/15-bit parts, part 4 straddles words: hashed
		{100, 12, 300, []int{0, 6, 14}},      // 8/9-bit parts, [60,68) straddles: direct
		{256, 16, 400, []int{0, 12, 24, 40}}, // the gist geometry at a size where hash is smaller
	}
	sawDirect, sawHashed, sawStraddle := false, false, false
	for gi, g := range geoms {
		rng := rand.New(rand.NewSource(int64(100 + gi)))
		vecs := clusteredVectors(rng, g.n, g.d)
		db, err := NewDB(vecs, g.m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range db.index {
			direct := db.index[i].offs != nil
			sawDirect = sawDirect || direct
			sawHashed = sawHashed || !direct
			sawStraddle = sawStraddle || db.box[i].straddles
		}
		ref := newRefIndex(vecs, g.m)
		var opts []Options
		for _, l := range []int{1, 2, 6, g.m} {
			opts = append(opts,
				Options{ChainLength: l, Alloc: AllocCostModel},
				Options{ChainLength: l, Alloc: AllocUniform},
				Options{ChainLength: l, Alloc: AllocCostModel, NoIntegerReduction: true},
				Options{ChainLength: l, Alloc: AllocCostModel, SkipVerify: true})
		}
		for trial := 0; trial < 6; trial++ {
			q := vecs[rng.Intn(g.n)].Clone()
			if trial%2 == 0 {
				q.Flip(rng.Intn(g.d))
			}
			for _, tau := range g.taus {
				want := db.SearchLinear(q, tau)
				for _, opt := range opts {
					name := fmt.Sprintf("d=%d m=%d τ=%d %+v", g.d, g.m, tau, opt)
					checkFilter(t, name, db, ref, rng, q, tau, opt, want)
				}
			}
		}
	}
	if !sawDirect || !sawHashed || !sawStraddle {
		t.Fatalf("sweep no longer covers every layout: direct=%v hashed=%v straddling=%v",
			sawDirect, sawHashed, sawStraddle)
	}
}

// checkFilter compares one (query, τ, options) point: Search and
// SearchDist against the oracle and the reference counts, then
// SearchRangeAppend over the whole corpus and over random windows.
func checkFilter(t *testing.T, name string, db *DB, ref *refIndex, rng *rand.Rand, q bitvec.Vector, tau int, opt Options, want []int) {
	t.Helper()
	if opt.SkipVerify {
		want = nil
	}
	got, st, err := db.Search(q, tau, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: Search = %v, want %v", name, got, want)
	}
	n := db.Len()
	_, wst := ref.search(t, q, tau, st.Thresholds, opt, 0, n)
	wst.Thresholds = st.Thresholds
	if !statsEqual(st, wst) {
		t.Fatalf("%s: stats %+v, reference %+v", name, st, wst)
	}
	if opt.ChainLength == 1 && st.BoxChecks != 0 {
		t.Fatalf("%s: l = 1 evaluated %d boxes", name, st.BoxChecks)
	}

	ids, dists, dst, err := db.SearchDist(q, tau, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(ids) != len(dists) || !statsEqual(dst, st) {
		t.Fatalf("%s: SearchDist %d ids, %d dists, stats %+v want %+v", name, len(ids), len(dists), dst, st)
	}
	for i, id := range ids {
		if d := bitvec.Hamming(db.Vector(id), q); d != dists[i] || d > tau {
			t.Fatalf("%s: SearchDist id %d at distance %d, true %d", name, id, dists[i], d)
		}
	}
	slices.Sort(ids)
	if !slices.Equal(ids, want) {
		t.Fatalf("%s: SearchDist ids %v, want %v", name, ids, want)
	}

	windows := [][2]int{{0, n}, {-3, n + 9}, {n / 3, n / 3}, {n, 0}, {n + 1, n + 5}}
	for i := 0; i < 3; i++ {
		lo := rng.Intn(n)
		windows = append(windows, [2]int{lo, lo + rng.Intn(n-lo+1)})
	}
	for _, w := range windows {
		var rst Stats
		out, err := db.SearchRangeAppend(q, tau, opt, w[0], w[1], []int64{-7, -8}, &rst)
		if err != nil {
			t.Fatalf("%s window %v: %v", name, w, err)
		}
		if out[0] != -7 || out[1] != -8 {
			t.Fatalf("%s window %v: dst prefix clobbered: %v", name, w, out[:2])
		}
		lo, hi := max(w[0], 0), min(w[1], n)
		var wantWin []int64
		for _, id := range want {
			if id >= lo && id < hi {
				wantWin = append(wantWin, int64(id))
			}
		}
		if !slices.Equal(out[2:], wantWin) {
			t.Fatalf("%s window %v: got %v, want %v", name, w, out[2:], wantWin)
		}
		var wrst Stats
		if lo < hi {
			_, wrst = ref.search(t, q, tau, st.Thresholds, opt, lo, hi)
		}
		if !statsEqual(rst, wrst) {
			t.Fatalf("%s window %v: stats %+v, reference %+v", name, w, rst, wrst)
		}
	}
}

func statsEqual(a, b Stats) bool {
	return a.Candidates == b.Candidates && a.Results == b.Results && a.Probes == b.Probes &&
		a.Enumerated == b.Enumerated && a.BoxChecks == b.BoxChecks && slices.Equal(a.Thresholds, b.Thresholds)
}

// TestBallEnumMatchesEnumerateBall: the chunked enumerator yields
// exactly bitvec.EnumerateBall's values for every width and radius,
// by non-decreasing distance, whatever chunk size it is drained with.
func TestBallEnumMatchesEnumerateBall(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, w := range []int{1, 2, 7, 8, 16, 33, 63, 64} {
		for _, tr := range []int{0, 1, 2, 3, w - 1, w, w + 2} {
			if tr < 0 || (tr > 3 && w > 16) {
				continue
			}
			center := rng.Uint64()
			if w < 64 {
				center &= 1<<uint(w) - 1
			}
			var want []uint64
			bitvec.EnumerateBall(center, w, tr, func(u uint64) { want = append(want, u) })
			slices.Sort(want)
			for _, chunk := range []int{1, 3, probeChunk} {
				var e ballEnum
				e.reset(center, w, tr)
				var got []uint64
				buf := make([]uint64, chunk)
				for c := e.fill(buf); c > 0; c = e.fill(buf) {
					got = append(got, buf[:c]...)
				}
				for i := 1; i < len(got); i++ {
					if bits.OnesCount64(got[i]^center) < bits.OnesCount64(got[i-1]^center) {
						t.Fatalf("w=%d t=%d chunk=%d: distance decreases at value %d", w, tr, chunk, i)
					}
				}
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Fatalf("w=%d t=%d chunk=%d: %d values, want %d", w, tr, chunk, len(got), len(want))
				}
			}
		}
	}
}

// TestBuildPartIndexLayouts pins the table rule and checks both layouts
// resolve every value to exactly the ascending ids holding it: narrow
// and dense builds direct; narrow but sparse goes through the counting
// sort and still ends hashed; wide is sorted and hashed.
func TestBuildPartIndexLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		name   string
		w      int
		value  func() uint64
		direct bool
	}{
		{"narrow-dense", 8, func() uint64 { return uint64(rng.Intn(256)) }, true},
		{"narrow-sparse", 8, func() uint64 { return uint64(rng.Intn(10)) * 25 }, false},
		{"wide", 40, func() uint64 { return uint64(rng.Intn(90)) << 33 }, false},
	}
	for _, c := range cases {
		vals := make([]uint64, 300)
		want := make(map[uint64][]int32)
		for id := range vals {
			vals[id] = c.value()
			want[vals[id]] = append(want[vals[id]], int32(id))
		}
		p := buildPartIndex(c.w, vals)
		if got := p.offs != nil; got != c.direct {
			t.Fatalf("%s: direct = %v, want %v", c.name, got, c.direct)
		}
		probe := []uint64{0, 1, 24, 26, 255}
		for v := range want {
			probe = append(probe, v)
		}
		spans := make([]uint64, len(probe))
		p.spans(probe, spans)
		for j, v := range probe {
			if got := p.ids[spans[j]>>32 : spans[j]&0xffffffff]; !slices.Equal(got, want[v]) {
				t.Fatalf("%s: value %d resolves to %v, want %v", c.name, v, got, want[v])
			}
		}
	}
	// The rule is a size comparison: (1<<w)+1 offsets of 4 bytes against
	// hashedCap slots of 16.
	for _, c := range []struct {
		w, keys int
		direct  bool
	}{{16, 12287, false}, {16, 12288, true}, {16, 65536, true}, {8, 47, false}, {8, 48, true}, {33, math.MaxInt32, false}} {
		if got := useDirect(c.w, c.keys); got != c.direct {
			t.Errorf("useDirect(%d, %d) = %v, want %v", c.w, c.keys, got, c.direct)
		}
	}
}

// TestEnumerationCostSane: the marginal ball-enumeration cost the cost
// model adds is finite, positive and non-decreasing in t up to w/2 —
// in int it overflowed from C(64, 24) on and went negative.
func TestEnumerationCostSane(t *testing.T) {
	for _, w := range []int{16, 32, 64} {
		prev := 0.0
		for k := 0; k <= w/2; k++ {
			c := binom(w, k)
			if math.IsInf(c, 0) || math.IsNaN(c) || c <= 0 || c < prev {
				t.Fatalf("binom(%d, %d) = %v after %v", w, k, c, prev)
			}
			prev = c
		}
	}
	if got := binom(64, 32); math.Abs(got-1832624140942590534) > 1e4 {
		t.Fatalf("binom(64, 32) = %v", got)
	}
	if binom(16, 3) != 560 || binom(5, 6) != 0 || binom(5, -1) != 0 {
		t.Fatal("binom small cases")
	}
}

// TestConcurrentVectorViews: Vector hands out views of the shared
// arena, so reading them from many goroutines alongside searches must
// be free of writes (run under -race) — including at a dimension off
// the word grid, where building a view masks the tail word.
func TestConcurrentVectorViews(t *testing.T) {
	vecs := clusteredVectors(rand.New(rand.NewSource(8)), 200, 100)
	db, err := NewDB(vecs, 7)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := 0; id < db.Len(); id++ {
				v := db.Vector(id)
				if !v.Equal(vecs[id]) {
					t.Errorf("Vector(%d) differs from the indexed vector", id)
					return
				}
				if _, _, err := db.Search(v, 6, RingOptions(3)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPreparedQueryConcurrent: a prepared Query is read-only, so
// searches of it at different thresholds from many goroutines at once
// must each answer exactly as SearchDist does (run under -race).
func TestPreparedQueryConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	vecs := clusteredVectors(rng, 200, 100)
	db, err := NewDB(vecs, 7)
	if err != nil {
		t.Fatal(err)
	}
	q := vecs[3]
	pq, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ids, dists []int
			for tau := g; tau <= 24; tau += 4 {
				var st Stats
				var err error
				ids, dists, err = pq.SearchDistAppend(tau, RingOptions(3), ids[:0], dists[:0], &st)
				wantIDs, wantDists, wst, werr := db.SearchDist(q, tau, RingOptions(3))
				if err != nil || werr != nil {
					t.Errorf("τ=%d: %v, %v", tau, err, werr)
					return
				}
				if !slices.Equal(ids, wantIDs) || !slices.Equal(dists, wantDists) ||
					st.Candidates != wst.Candidates || st.Probes != wst.Probes || st.BoxChecks != wst.BoxChecks {
					t.Errorf("τ=%d: prepared search %v %v %+v, SearchDist %v %v %+v", tau, ids, dists, st, wantIDs, wantDists, wst)
					return
				}
			}
		}()
	}
	wg.Wait()
}
