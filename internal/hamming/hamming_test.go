package hamming

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
)

// table2Vectors returns the paper's Table 2: four 10-dimensional data
// vectors and a query, partitioned into 5 parts of 2 bits.
func table2Vectors(t *testing.T) ([]bitvec.Vector, bitvec.Vector) {
	t.Helper()
	strs := []string{
		"11 11 10 11 10", // x1
		"00 01 01 11 10", // x2
		"01 01 10 01 10", // x3
		"11 01 10 11 00", // x4
	}
	var vecs []bitvec.Vector
	for _, s := range strs {
		v, err := bitvec.FromString(s)
		if err != nil {
			t.Fatal(err)
		}
		vecs = append(vecs, v)
	}
	q, err := bitvec.FromString("00 10 01 00 11")
	if err != nil {
		t.Fatal(err)
	}
	return vecs, q
}

// TestPaperExample2 reproduces Example 2: with τ = 5 and m = 5, the
// pigeonhole filter admits x1, x2, x3 as candidates; only x2 is a
// result (H = 8, 5, 7, 10).
func TestPaperExample2(t *testing.T) {
	vecs, q := table2Vectors(t)
	wantDist := []int{8, 5, 7, 10}
	for i, v := range vecs {
		if got := bitvec.Hamming(v, q); got != wantDist[i] {
			t.Fatalf("H(x%d, q) = %d, want %d", i+1, got, wantDist[i])
		}
	}
	db, err := NewDB(vecs, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Uniform allocation without integer reduction gives t_i = 1 = τ/5,
	// the exact setting of Example 2.
	opt := Options{ChainLength: 1, Alloc: AllocUniform, NoIntegerReduction: true}
	res, st, err := db.Search(q, 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0] != 1 {
		t.Errorf("results = %v, want [1] (x2)", res)
	}
	if st.Candidates != 3 {
		t.Errorf("pigeonhole candidates = %d, want 3 (x1,x2,x3)", st.Candidates)
	}
}

// TestPaperExample3And5 reproduces Examples 3 and 5: with chain length
// l = 2, x1 and x4 are filtered while x2 and x3 remain candidates.
func TestPaperExample3And5(t *testing.T) {
	vecs, q := table2Vectors(t)
	db, err := NewDB(vecs, 5)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{ChainLength: 2, Alloc: AllocUniform, NoIntegerReduction: true}
	res, st, err := db.Search(q, 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0] != 1 {
		t.Errorf("results = %v, want [1]", res)
	}
	if st.Candidates != 2 {
		t.Errorf("ring candidates = %d, want 2 (x2,x3)", st.Candidates)
	}
}

// TestPaperExample9 reproduces §6.1 Example 9: τ = 3, m = 3, T = (0,1,0)
// admits x under GPH but the l = 2 chain check filters it.
func TestPaperExample9(t *testing.T) {
	x, _ := bitvec.FromString("0000 0011 1111")
	q, _ := bitvec.FromString("0000 1110 0111")
	db, err := NewDB([]bitvec.Vector{x}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Force the paper's allocation by checking both orders the cost
	// model could produce; here we verify through the filter semantics
	// directly with uniform allocation of total τ−m+1 = 1 → T=(1,0,0).
	// The paper's T=(0,1,0) also sums to 1; either way b0 = 0 ≤ t0 can
	// hold while the l = 2 strong form rejects, because
	// b0 + b1 = 3 > t0 + t1 + 1 for both allocations.
	gph, stGPH, err := db.Search(q, 3, Options{ChainLength: 1, Alloc: AllocUniform})
	if err != nil {
		t.Fatal(err)
	}
	if len(gph) != 0 {
		t.Errorf("x must not be a result (H=4): %v", gph)
	}
	if stGPH.Candidates != 1 {
		t.Errorf("GPH candidates = %d, want 1 (false positive)", stGPH.Candidates)
	}
	_, stRing, err := db.Search(q, 3, Options{ChainLength: 2, Alloc: AllocUniform})
	if err != nil {
		t.Fatal(err)
	}
	if stRing.Candidates != 0 {
		t.Errorf("Ring candidates = %d, want 0 (filtered)", stRing.Candidates)
	}
}

func randomDB(t testing.TB, n, d, m int, seed int64) (*DB, *rand.Rand) {
	if t != nil {
		t.Helper()
	}
	rng := rand.New(rand.NewSource(seed))
	vecs := make([]bitvec.Vector, n)
	for i := range vecs {
		vecs[i] = bitvec.Random(rng, d)
	}
	// Plant some near-duplicates so small thresholds have results.
	for i := n / 2; i < n; i += 7 {
		vecs[i] = vecs[i/2].Clone()
		flips := rng.Intn(8)
		for f := 0; f < flips; f++ {
			vecs[i].Flip(rng.Intn(d))
		}
	}
	db, err := NewDB(vecs, m)
	if err != nil {
		if t != nil {
			t.Fatal(err)
		}
		panic(err)
	}
	return db, rng
}

// TestExactness: every configuration returns exactly the linear-scan
// results.
func TestExactness(t *testing.T) {
	db, rng := randomDB(t, 600, 64, 8, 1)
	opts := []Options{
		{ChainLength: 1, Alloc: AllocCostModel},
		{ChainLength: 1, Alloc: AllocUniform},
		{ChainLength: 2, Alloc: AllocCostModel},
		{ChainLength: 4, Alloc: AllocUniform},
		{ChainLength: 6, Alloc: AllocCostModel},
		{ChainLength: 8, Alloc: AllocCostModel},
		{ChainLength: 3, Alloc: AllocCostModel, NoIntegerReduction: true},
		{ChainLength: 1, Alloc: AllocUniform, NoIntegerReduction: true},
	}
	for trial := 0; trial < 25; trial++ {
		q := bitvec.Random(rng, 64)
		if trial%3 == 0 {
			q = db.Vector(rng.Intn(db.Len())).Clone() // in-database query
		}
		for _, tau := range []int{0, 2, 5, 9, 16} {
			want := db.SearchLinear(q, tau)
			for _, opt := range opts {
				got, _, err := db.Search(q, tau, opt)
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

// TestCandidateSubset: Ring candidates never exceed GPH candidates for
// the same allocation (Lemma 4), and candidates shrink as l grows.
func TestCandidateSubset(t *testing.T) {
	db, rng := randomDB(t, 800, 64, 8, 2)
	for trial := 0; trial < 10; trial++ {
		q := bitvec.Random(rng, 64)
		tau := 8 + rng.Intn(12)
		prev := -1
		for l := 1; l <= 8; l++ {
			_, st, err := db.Search(q, tau, Options{ChainLength: l, Alloc: AllocUniform})
			if err != nil {
				t.Fatal(err)
			}
			if prev >= 0 && st.Candidates > prev {
				t.Fatalf("τ=%d: candidates grew from %d to %d at l=%d", tau, prev, st.Candidates, l)
			}
			prev = st.Candidates
			if st.Results > st.Candidates {
				t.Fatalf("results %d > candidates %d", st.Results, st.Candidates)
			}
		}
	}
}

// TestFullChainSubsumesVerification: at l = m, candidates equal results
// (tight instance, §3 remark).
func TestFullChainSubsumesVerification(t *testing.T) {
	db, rng := randomDB(t, 500, 64, 8, 3)
	for trial := 0; trial < 10; trial++ {
		q := bitvec.Random(rng, 64)
		tau := 5 + rng.Intn(15)
		_, st, err := db.Search(q, tau, Options{ChainLength: 8, Alloc: AllocUniform})
		if err != nil {
			t.Fatal(err)
		}
		if st.Candidates != st.Results {
			t.Fatalf("τ=%d: candidates %d != results %d at l=m", tau, st.Candidates, st.Results)
		}
	}
}

// TestAllocationSums: the cost model's thresholds always sum to the
// theorem-mandated total.
func TestAllocationSums(t *testing.T) {
	db, rng := randomDB(t, 300, 64, 8, 4)
	for _, tau := range []int{0, 1, 3, 7, 20, 40} {
		q := bitvec.Random(rng, 64)
		for _, opt := range []Options{
			{ChainLength: 1, Alloc: AllocCostModel},
			{ChainLength: 1, Alloc: AllocUniform},
			{ChainLength: 1, Alloc: AllocCostModel, NoIntegerReduction: true},
		} {
			_, st, err := db.Search(q, tau, opt)
			if err != nil {
				t.Fatal(err)
			}
			sum := 0
			for _, v := range st.Thresholds {
				sum += v
			}
			want := tau - db.M() + 1
			if opt.NoIntegerReduction {
				want = tau
			}
			if sum != want {
				t.Errorf("τ=%d opt=%+v: Σt = %d, want %d", tau, opt, sum, want)
			}
		}
	}
}

// TestQuickExactness drives exactness with quick-generated dimensions
// and thresholds.
func TestQuickExactness(t *testing.T) {
	prop := func(seed int64, tauRaw, lRaw uint8) bool {
		db, rng := randomDB(nil, 200, 64, 8, seed)
		q := bitvec.Random(rng, 64)
		tau := int(tauRaw) % 24
		l := 1 + int(lRaw)%8
		got, _, err := db.Search(q, tau, Options{ChainLength: l, Alloc: AllocCostModel})
		if err != nil {
			return false
		}
		return equalInts(got, db.SearchLinear(q, tau))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestErrors(t *testing.T) {
	if _, err := NewDB(nil, 4); err == nil {
		t.Error("NewDB(nil) should fail")
	}
	rng := rand.New(rand.NewSource(9))
	if _, err := NewDB([]bitvec.Vector{bitvec.Random(rng, 64), bitvec.Random(rng, 32)}, 4); err == nil {
		t.Error("mixed dimensions should fail")
	}
	if _, err := NewDB([]bitvec.Vector{bitvec.Random(rng, 64)}, 0); err == nil {
		t.Error("m=0 should fail")
	}
	// 256 bits in 3 parts would need 86-bit part values.
	if _, err := NewDB([]bitvec.Vector{bitvec.Random(rng, 256)}, 3); err == nil {
		t.Error("parts wider than 64 bits should fail")
	}
	db, _ := randomDB(t, 50, 64, 8, 10)
	if _, _, err := db.Search(bitvec.Random(rng, 32), 5, GPHOptions()); err == nil {
		t.Error("dimension mismatch should fail")
	}
	if _, _, err := db.Search(bitvec.Random(rng, 64), -1, GPHOptions()); err == nil {
		t.Error("negative τ should fail")
	}
	if _, err := db.Prepare(bitvec.Random(rng, 32)); err == nil {
		t.Error("Prepare with a dimension mismatch should fail")
	}
	pq, err := db.Prepare(bitvec.Random(rng, 64))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pq.SearchDistAppend(-1, GPHOptions(), nil, nil, &Stats{}); err == nil {
		t.Error("negative τ on a prepared query should fail")
	}
}

func TestOptionHelpers(t *testing.T) {
	if GPHOptions().ChainLength != 1 {
		t.Error("GPHOptions must use l=1")
	}
	if RingOptions(5).ChainLength != 5 {
		t.Error("RingOptions(5) must use l=5")
	}
}

// TestRingReducesCandidatesOnClusters: on cluster-structured data (the
// regime of the paper's GIST/SIFT experiments), the l = 5 ring filter
// must produce strictly fewer candidates than GPH for thresholds in the
// interesting range — this is the headline effect of Figure 9.
func TestRingReducesCandidatesOnClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const d, n = 128, 2000
	centers := make([]bitvec.Vector, 8)
	for i := range centers {
		centers[i] = bitvec.Random(rng, d)
	}
	vecs := make([]bitvec.Vector, n)
	for i := range vecs {
		v := centers[rng.Intn(len(centers))].Clone()
		for f := 0; f < 12; f++ {
			v.Flip(rng.Intn(d))
		}
		vecs[i] = v
	}
	db, err := NewDB(vecs, 8)
	if err != nil {
		t.Fatal(err)
	}
	var gphCand, ringCand int
	for trial := 0; trial < 20; trial++ {
		q := vecs[rng.Intn(n)].Clone()
		q.Flip(rng.Intn(d))
		wantRes := db.SearchLinear(q, 24)
		for _, cfg := range []struct {
			l    int
			cand *int
		}{{1, &gphCand}, {5, &ringCand}} {
			got, st, err := db.Search(q, 24, RingOptions(cfg.l))
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(got, wantRes) {
				t.Fatalf("l=%d returned wrong results", cfg.l)
			}
			*cfg.cand += st.Candidates
		}
	}
	if ringCand > gphCand {
		t.Errorf("ring candidates %d > gph candidates %d", ringCand, gphCand)
	}
	if gphCand > 0 && float64(ringCand) > 0.9*float64(gphCand) {
		t.Logf("warning: weak reduction: ring=%d gph=%d", ringCand, gphCand)
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
