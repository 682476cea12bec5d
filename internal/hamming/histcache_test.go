package hamming

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
)

// refAllocate is the pre-cache allocator: it rebuilds the cost-model
// histograms by scanning every sample vector with PartDistance, the
// behaviour the histogram cache must reproduce exactly.
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

// TestAllocateHistogramCacheParity: the cached allocator must produce
// thresholds byte-identical to the full sample scan, in every
// Allocation mode (cost model with integer reduction, cost model
// without it, uniform), on the miss path and on the hit path alike.
func TestAllocateHistogramCacheParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const d, m, n = 128, 8, 500
	vecs := make([]bitvec.Vector, n)
	for i := range vecs {
		vecs[i] = bitvec.Random(rng, d)
	}
	db, err := NewDB(vecs, m)
	if err != nil {
		t.Fatal(err)
	}
	s := db.getScratch()
	defer db.putScratch(s)
	qParts := make([]uint64, m)
	for qi := 0; qi < 50; qi++ {
		q := bitvec.Random(rng, d)
		for i := 0; i < m; i++ {
			qParts[i] = db.part.Extract(q, i)
		}
		for _, tc := range []struct {
			name  string
			total int
			mode  Allocation
		}{
			{"cost-model/integer-reduction", 24 - m + 1, AllocCostModel},
			{"cost-model/no-reduction", 24, AllocCostModel},
			{"uniform", 24 - m + 1, AllocUniform},
		} {
			want := refAllocate(db, q, tc.total, tc.mode)
			// Twice: the first call may compute and fill the cache, the
			// second must hit it; both must match the scan.
			for pass := 0; pass < 2; pass++ {
				got := db.allocate(qParts, tc.total, tc.mode, s)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("query %d %s pass %d: allocate = %v, scan = %v", qi, tc.name, pass, got, want)
					}
				}
			}
		}
	}
}

// TestPartHistCapFallback: past histCacheCap entries the allocator
// computes into scratch instead of growing the cache, with identical
// histograms.
func TestPartHistCapFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const d, m = 64, 4
	vecs := make([]bitvec.Vector, 100)
	for i := range vecs {
		vecs[i] = bitvec.Random(rng, d)
	}
	db, err := NewDB(vecs, m)
	if err != nil {
		t.Fatal(err)
	}
	// Force the over-cap path.
	db.histEntries.Store(histCacheCap)
	buf := make([]int32, db.part.Width(0)+1)
	for trial := 0; trial < 20; trial++ {
		q := bitvec.Random(rng, d)
		qv := db.part.Extract(q, 0)
		got := db.partHist(0, qv, buf)
		want := make([]int32, db.part.Width(0)+1)
		for _, id := range db.sample {
			want[db.part.PartDistance(db.Vector(int(id)), q, 0)]++
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("trial %d: over-cap hist[%d] = %d, want %d", trial, k, got[k], want[k])
			}
		}
		if _, ok := db.histCache[0].Load(qv); ok {
			t.Fatal("over-cap histogram was cached")
		}
	}
}
