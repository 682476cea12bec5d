package setsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tokenset"
)

// figure3Config reproduces the paper's Figure 3 setup: tokens A..P are
// ids 0..15, classes A−B → 1, C−D → 2, E−F → 3, G−P → 4, so M = 5.
func figure3Config() Config {
	return Config{
		Measure: Overlap,
		Tau:     9,
		M:       5,
		Class: func(tok int32) int {
			switch {
			case tok <= 1: // A, B
				return 1
			case tok <= 3: // C, D
				return 2
			case tok <= 5: // E, F
				return 3
			default: // G..P
				return 4
			}
		},
	}
}

func tokens(s string) tokenset.Set {
	var out tokenset.Set
	for _, c := range s {
		if c == ' ' {
			continue
		}
		out = append(out, int32(c-'A'))
	}
	return out
}

// TestPaperExample10Prefixes checks the prefix computation against the
// paper: both x and q have prefix length 9 and the query thresholds are
// T = (4, 1, 2, 2, 4).
func TestPaperExample10Prefixes(t *testing.T) {
	cfg := figure3Config()
	x := tokens("ACDEGHIJKLMN")
	q := tokens("BCDFGHILMNOP")
	cntX := make([]int, cfg.M)
	px, shortX := cfg.prefixInfo(x, 9, cntX)
	if px != 9 || shortX != 0 {
		t.Fatalf("px = %d (shortfall %d), want 9", px, shortX)
	}
	if cntX[1] != 1 || cntX[2] != 2 || cntX[3] != 1 || cntX[4] != 5 {
		t.Errorf("x class counts = %v", cntX)
	}
	cntQ := make([]int, cfg.M)
	pq, shortQ := cfg.prefixInfo(q, 9, cntQ)
	if pq != 9 || shortQ != 0 {
		t.Fatalf("pq = %d (shortfall %d), want 9", pq, shortQ)
	}
	if cntQ[1] != 1 || cntQ[2] != 2 || cntQ[3] != 1 || cntQ[4] != 5 {
		t.Errorf("q class counts = %v", cntQ)
	}
	db, err := NewPKWiseDB([]tokenset.Set{x}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, ok := db.plan(q, db.getScratch())
	if !ok {
		t.Fatal("no plan")
	}
	want := []int{4, 1, 2, 2, 4}
	for i, w := range want {
		if plan.t[i] != w {
			t.Errorf("t[%d] = %v, want %v (T=%v)", i, plan.t[i], w, plan.t)
		}
	}
	// Σt = τ + m − 1 = 13.
	sum := 0
	for _, v := range plan.t {
		sum += v
	}
	if sum != 13 {
		t.Errorf("Σt = %v, want 13", sum)
	}
}

// TestPaperExample10Filtering reproduces the filtering outcome: x is a
// pkwise candidate (b2 = 2 ≥ t2) but a false positive (overlap 8 < 9),
// and the l = 2 pigeonring check filters it (b2 + b3 = 2 < t2+t3−1 = 3).
func TestPaperExample10Filtering(t *testing.T) {
	cfg := figure3Config()
	x := tokens("ACDEGHIJKLMN")
	q := tokens("BCDFGHILMNOP")
	if got := tokenset.Overlap(x, q); got != 8 {
		t.Fatalf("overlap = %d, want 8", got)
	}
	db, err := NewPKWiseDB([]tokenset.Set{x}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res1, st1, err := db.Search(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1) != 0 {
		t.Errorf("x must not be a result: %v", res1)
	}
	if st1.Candidates != 1 {
		t.Errorf("pkwise candidates = %d, want 1", st1.Candidates)
	}
	_, st2, err := db.Search(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Candidates != 0 {
		t.Errorf("ring candidates = %d, want 0 (filtered)", st2.Candidates)
	}
}

// --- Random workload machinery ---------------------------------------------

// genSets builds a Zipf-ish corpus with planted near-duplicates so that
// high similarity thresholds have results.
func genSets(rng *rand.Rand, n, avgLen, universe int) []tokenset.Set {
	raw := make([][]int32, n)
	for i := range raw {
		ln := 1 + rng.Intn(2*avgLen)
		s := make([]int32, ln)
		for j := range s {
			// Squared uniform skews toward frequent (high) raw ids.
			u := rng.Float64()
			s[j] = int32(float64(universe-1) * u * u)
		}
		raw[i] = s
	}
	// Plant near-duplicates of earlier sets.
	for i := n / 2; i < n; i += 3 {
		src := raw[rng.Intn(n/2)]
		dup := append([]int32(nil), src...)
		for k := 0; k < len(dup)/10+1; k++ {
			dup[rng.Intn(len(dup))] = int32(rng.Intn(universe))
		}
		raw[i] = dup
	}
	dict := tokenset.BuildDictionary(raw)
	return dict.RelabelAll(raw)
}

// TestExactnessJaccard: every algorithm returns exactly the linear-scan
// results on random Jaccard workloads.
func TestExactnessJaccard(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sets := genSets(rng, 500, 20, 400)
	for _, tau := range []float64{0.6, 0.7, 0.8, 0.9} {
		cfg := Config{Measure: Jaccard, Tau: tau, M: 5}
		pk, err := NewPKWiseDB(sets, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ap, err := NewAllPairsDB(sets, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pa, err := NewPartAllocDB(sets, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 30; trial++ {
			q := sets[rng.Intn(len(sets))]
			want := SearchLinear(sets, q, cfg)
			for l := 1; l <= 3; l++ {
				got, _, err := pk.Search(q, l)
				if err != nil {
					t.Fatal(err)
				}
				if !equalInts(got, want) {
					t.Fatalf("pkwise τ=%v l=%d: got %v want %v (|q|=%d)", tau, l, got, want, len(q))
				}
			}
			gotAP, _, err := ap.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(gotAP, want) {
				t.Fatalf("allpairs τ=%v: got %v want %v", tau, gotAP, want)
			}
			gotPA, _, err := pa.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(gotPA, want) {
				t.Fatalf("partalloc τ=%v: got %v want %v", tau, gotPA, want)
			}
		}
	}
}

// TestExactnessOverlap: pkwise and allpairs support the plain overlap
// measure used by the paper's running examples.
func TestExactnessOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	sets := genSets(rng, 400, 15, 300)
	for _, tau := range []float64{2, 4, 8} {
		cfg := Config{Measure: Overlap, Tau: tau, M: 5}
		pk, err := NewPKWiseDB(sets, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ap, err := NewAllPairsDB(sets, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 25; trial++ {
			q := sets[rng.Intn(len(sets))]
			want := SearchLinear(sets, q, cfg)
			for l := 1; l <= 3; l++ {
				got, _, err := pk.Search(q, l)
				if err != nil {
					t.Fatal(err)
				}
				if !equalInts(got, want) {
					t.Fatalf("pkwise τ=%v l=%d: wrong results", tau, l)
				}
			}
			gotAP, _, err := ap.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(gotAP, want) {
				t.Fatalf("allpairs τ=%v: wrong results", tau)
			}
		}
	}
}

// TestRingCandidateSubset: ring candidates are a subset of pkwise
// candidates and shrink monotonically with chain length (Lemma 4).
func TestRingCandidateSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sets := genSets(rng, 800, 25, 500)
	cfg := Config{Measure: Jaccard, Tau: 0.7, M: 5}
	pk, err := NewPKWiseDB(sets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		q := sets[rng.Intn(len(sets))]
		prev := -1
		for l := 1; l <= 5; l++ {
			_, st, err := pk.Search(q, l)
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

// TestQuickExactness drives pkwise/ring exactness through quick.
func TestQuickExactness(t *testing.T) {
	prop := func(seed int64, tauIdx, lRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sets := genSets(rng, 150, 12, 200)
		taus := []float64{0.6, 0.7, 0.8, 0.9}
		cfg := Config{Measure: Jaccard, Tau: taus[int(tauIdx)%len(taus)], M: 4}
		pk, err := NewPKWiseDB(sets, cfg)
		if err != nil {
			return false
		}
		q := sets[rng.Intn(len(sets))]
		got, _, err := pk.Search(q, 1+int(lRaw)%4)
		if err != nil {
			return false
		}
		return equalInts(got, SearchLinear(sets, q, cfg))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestTinySets exercises the coverage-shortfall path: sets smaller than
// their class indexes force prefixes to the whole set.
func TestTinySets(t *testing.T) {
	sets := []tokenset.Set{
		{7},
		{3, 9},
		{1, 5, 11},
		{2, 4, 6, 8},
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
	}
	cfg := Config{Measure: Jaccard, Tau: 0.6, M: 5}
	pk, err := NewPKWiseDB(sets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range sets {
		want := SearchLinear(sets, q, cfg)
		for l := 1; l <= 5; l++ {
			got, _, err := pk.Search(q, l)
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(got, want) {
				t.Fatalf("q=%v l=%d: got %v want %v", q, l, got, want)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Measure: Jaccard, Tau: 0, M: 5},
		{Measure: Jaccard, Tau: 1.2, M: 5},
		{Measure: Overlap, Tau: 0.5, M: 5},
		{Measure: Overlap, Tau: 0, M: 5},
		{Measure: Jaccard, Tau: 0.7, M: 1},
		{Measure: Measure(9), Tau: 0.7, M: 5},
	}
	for _, cfg := range cases {
		if _, err := NewPKWiseDB(nil, cfg); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
	// PartAlloc requires Jaccard.
	if _, err := NewPartAllocDB(nil, Config{Measure: Overlap, Tau: 3, M: 5}); err == nil {
		t.Error("PartAlloc with overlap measure should be rejected")
	}
	// Invalid sets and queries are rejected.
	bad := []tokenset.Set{{2, 1}}
	if _, err := NewPKWiseDB(bad, Config{Measure: Jaccard, Tau: 0.7, M: 5}); err == nil {
		t.Error("unsorted set should be rejected")
	}
	good, _ := NewPKWiseDB([]tokenset.Set{{1, 2}}, Config{Measure: Jaccard, Tau: 0.7, M: 5})
	if _, _, err := good.Search(tokenset.Set{2, 1}, 1); err == nil {
		t.Error("unsorted query should be rejected")
	}
}

// TestPartAllocProbeProfile: PartAlloc probes many hashes but touches
// few objects — the §8.3 cost profile.
func TestPartAllocProbeProfile(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	sets := genSets(rng, 600, 20, 400)
	cfg := Config{Measure: Jaccard, Tau: 0.8, M: 5}
	pa, err := NewPartAllocDB(sets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := NewPKWiseDB(sets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var paCand, pkCand int
	for trial := 0; trial < 20; trial++ {
		q := sets[rng.Intn(len(sets))]
		_, stPA, err := pa.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		_, stPK, err := pk.Search(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		paCand += stPA.Candidates
		pkCand += stPK.Candidates
	}
	if paCand > pkCand {
		t.Logf("note: PartAlloc candidates %d vs pkwise %d (data dependent)", paCand, pkCand)
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
