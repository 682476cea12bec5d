package hamming

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitvec"
)

// refAllocate is the allocator written plainly: it rebuilds the
// cost-model histograms by scanning every sample vector with
// PartDistance and recomputes every part's marginal cost on every
// increment, the behaviour allocate must reproduce exactly.
func refAllocate(db *DB, q bitvec.Vector, total int, mode Allocation) []int {
	m := db.part.M()
	t := make([]int, m)
	if mode == AllocUniform {
		base := total / m
		rem := total - base*m
		for i := range t {
			t[i] = base
			if rem > 0 {
				t[i]++
				rem--
			} else if rem < 0 {
				t[i]--
				rem++
			}
		}
		return t
	}
	for i := range t {
		t[i] = -1
	}
	increments := total + m
	if increments <= 0 {
		return t
	}
	distHist := make([][]int, m)
	for i := 0; i < m; i++ {
		distHist[i] = make([]int, db.part.Width(i)+1)
		for _, id := range db.sample {
			distHist[i][db.part.PartDistance(db.Vector(int(id)), q, i)]++
		}
	}
	scale := float64(db.Len()) / float64(len(db.sample))
	const enumWeight = 0.5
	marginal := func(i int) float64 {
		next := t[i] + 1
		w := db.part.Width(i)
		if next > w {
			return float64(1 << 62)
		}
		cands := float64(distHist[i][next]) * scale
		balls := float64(binom(w, next)) * enumWeight
		return cands + balls
	}
	for step := 0; step < increments; step++ {
		best, bestCost := -1, 0.0
		for i := 0; i < m; i++ {
			c := marginal(i)
			if best == -1 || c < bestCost {
				best, bestCost = i, c
			}
		}
		t[best]++
	}
	return t
}

// testShapes are the (d, m) partitionings the allocator is checked on:
// parts that straddle a word boundary (m = 7 at d = 100, m = 3 and 10
// at d = 128, m = 5 and 20 at d = 256), parts one bit wide (m = d) and
// parts 64 bits wide (m = d/64).
var testShapes = []struct{ d, m int }{
	{64, 64}, {64, 1}, {64, 5},
	{100, 7}, {100, 100},
	{128, 10}, {128, 2}, {128, 3},
	{256, 20}, {256, 4}, {256, 5},
}

// allocMode is one way a search calls the allocator.
type allocMode struct {
	name        string
	total       int
	mode        Allocation
	noReduction bool
}

// allocateModes lists, for threshold tau over m parts, the three ways a
// search calls the allocator: the cost model with and without integer
// reduction, and uniform.
func allocateModes(tau, m int) []allocMode {
	return []allocMode{
		{"cost-model/integer-reduction", tau - m + 1, AllocCostModel, false},
		{"cost-model/no-reduction", tau, AllocCostModel, true},
		{"uniform", tau - m + 1, AllocUniform, false},
	}
}

// TestAllocateMatchesScan: the allocator must produce thresholds
// identical to the full sample scan of refAllocate, in every Allocation
// mode, over every test shape and over corpora of 1, 3 and 5 vectors,
// whose samples hold fewer distinct part values than the histogram
// loop unrolls by. The prepared histograms must equal the scan's too.
func TestAllocateMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sh := range testShapes {
		for _, n := range []int{1, 3, 5, 300} {
			vecs := clusteredVectors(rng, n, sh.d)
			db, err := NewDB(vecs, sh.m)
			if err != nil {
				t.Fatal(err)
			}
			for qi := 0; qi < 8; qi++ {
				q := bitvec.Random(rng, sh.d)
				if qi%2 == 0 {
					q = vecs[rng.Intn(n)]
				}
				checkHists(t, db, q)
				for _, tau := range []int{0, sh.m - 1, sh.m + 3, sh.d / 2, sh.d} {
					for _, tc := range allocateModes(tau, sh.m) {
						want := refAllocate(db, q, tc.total, tc.mode)
						// Twice: nothing a first call leaves behind may
						// change the second.
						for pass := 0; pass < 2; pass++ {
							if got := allocateFor(t, db, q, tc.total, tc.mode); !slices.Equal(got, want) {
								t.Fatalf("d=%d m=%d n=%d query %d τ=%d %s pass %d: allocate = %v, scan = %v",
									sh.d, sh.m, n, qi, tau, tc.name, pass, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// checkHists requires q's prepared histograms to equal a PartDistance
// scan over the sample vectors.
func checkHists(t *testing.T, db *DB, q bitvec.Vector) {
	t.Helper()
	pq, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < db.M(); i++ {
		want := make([]int32, db.part.Width(i)+1)
		for _, id := range db.sample {
			want[db.part.PartDistance(db.Vector(int(id)), q, i)]++
		}
		if got := db.hist(pq, i); !slices.Equal(got, want) {
			t.Fatalf("d=%d m=%d n=%d part %d: histogram %v, scan %v", db.Dim(), db.M(), db.Len(), i, got, want)
		}
	}
}

// allocateFor runs the allocator for q on pooled scratch and returns a
// copy of its thresholds.
func allocateFor(t *testing.T, db *DB, q bitvec.Vector, total int, mode Allocation) []int {
	t.Helper()
	pq, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	s := db.getScratch()
	defer db.putScratch(s)
	return slices.Clone(db.allocate(pq, total, mode, s))
}

// maxFuzzBall bounds the ball values one fuzzed search may enumerate
// across its parts; searches past it check only the allocation.
const maxFuzzBall = 1 << 17

// FuzzAllocate draws a corpus (seed, dimension d ≤ 256, part count m,
// n ≤ 300 vectors) and a threshold τ ≤ d, and requires allocate to
// equal refAllocate in all three allocation modes and the SearchDist
// ids, sorted, to equal SearchLinear, with every reported distance
// exact. The search is skipped when its thresholds would enumerate
// more than maxFuzzBall ball values: wide parts at a large τ have balls
// of up to 2⁶⁴ values.
func FuzzAllocate(f *testing.F) {
	f.Add(int64(1), uint16(64), uint16(64), uint16(3), uint16(5), uint8(0))
	f.Add(int64(2), uint16(100), uint16(7), uint16(300), uint16(20), uint8(1))
	f.Add(int64(3), uint16(256), uint16(5), uint16(1), uint16(8), uint8(2))
	f.Add(int64(4), uint16(128), uint16(2), uint16(5), uint16(3), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, d, m, n, tau uint16, mode uint8) {
		dim := 1 + int(d)%256
		lo := (dim + 63) / 64
		parts := lo + int(m)%(dim-lo+1)
		size := 1 + int(n)%300
		tu := int(tau) % (dim + 1)
		rng := rand.New(rand.NewSource(seed))
		vecs := clusteredVectors(rng, size, dim)
		db, err := NewDB(vecs, parts)
		if err != nil {
			t.Fatal(err)
		}
		q := bitvec.Random(rng, dim)
		if rng.Intn(2) == 0 {
			q = vecs[rng.Intn(size)]
		}
		for _, tc := range allocateModes(tu, parts) {
			if got, want := allocateFor(t, db, q, tc.total, tc.mode), refAllocate(db, q, tc.total, tc.mode); !slices.Equal(got, want) {
				t.Fatalf("d=%d m=%d n=%d τ=%d %s: allocate = %v, scan = %v", dim, parts, size, tu, tc.name, got, want)
			}
		}
		tc := allocateModes(tu, parts)[int(mode)%3]
		opt := RingOptions(1 + int(mode)/3%6)
		opt.Alloc, opt.NoIntegerReduction = tc.mode, tc.noReduction
		ball := 0.0
		for i, ti := range allocateFor(t, db, q, tc.total, tc.mode) {
			for k := 0; k <= min(ti, db.part.Width(i)); k++ {
				ball += binom(db.part.Width(i), k)
			}
		}
		if ball > maxFuzzBall {
			return
		}
		ids, dists, _, err := db.SearchDist(q, tu, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			if h := bitvec.Hamming(db.Vector(id), q); dists[i] != h {
				t.Fatalf("d=%d m=%d n=%d τ=%d: id %d reported at distance %d, is %d", dim, parts, size, tu, id, dists[i], h)
			}
		}
		slices.Sort(ids)
		if want := db.SearchLinear(q, tu); !slices.Equal(ids, want) {
			t.Fatalf("d=%d m=%d n=%d τ=%d %+v: SearchDist ids %v, SearchLinear %v", dim, parts, size, tu, opt, ids, want)
		}
	})
}
