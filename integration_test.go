package repro

// End-to-end integration tests: one realistic workload per τ-selection
// problem, driving dataset generation → index construction → baseline
// and Ring searches → verification, and asserting the cross-system
// invariants the paper proves (exactness, candidate subsumption,
// chain-length monotonicity).

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hamming"
	"repro/internal/setsim"
	"repro/internal/strdist"
	"repro/internal/tokenset"
)

func TestIntegrationHamming(t *testing.T) {
	vecs := dataset.GIST(3000, 1)
	db, err := hamming.NewDB(vecs, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, qi := range dataset.SampleQueries(len(vecs), 8, 1) {
		q := vecs[qi]
		for _, tau := range []int{16, 40, 64} {
			want := db.SearchLinear(q, tau)
			gph, gphStats, err := db.Search(q, tau, hamming.GPHOptions())
			if err != nil {
				t.Fatal(err)
			}
			ring, ringStats, err := db.Search(q, tau, hamming.RingOptions(6))
			if err != nil {
				t.Fatal(err)
			}
			if !sameInts(gph, want) || !sameInts(ring, want) {
				t.Fatalf("τ=%d: exactness violated", tau)
			}
			if ringStats.Candidates > gphStats.Candidates {
				t.Fatalf("τ=%d: ring candidates %d > gph %d", tau, ringStats.Candidates, gphStats.Candidates)
			}
		}
	}
}

func TestIntegrationSetSimilarity(t *testing.T) {
	sets := dataset.DBLP(4000, 2)
	cfg := setsim.Config{Measure: setsim.Jaccard, Tau: 0.8, M: 5}
	pk, err := setsim.NewPKWiseDB(sets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := setsim.NewAllPairsDB(sets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := setsim.NewPartAllocDB(sets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, qi := range dataset.SampleQueries(len(sets), 10, 2) {
		q := sets[qi]
		want := setsim.SearchLinear(sets, q, cfg)
		for name, got := range map[string]func() ([]int, setsim.Stats, error){
			"pkwise":      func() ([]int, setsim.Stats, error) { return pk.Search(q, 1) },
			"ring":        func() ([]int, setsim.Stats, error) { return pk.Search(q, 2) },
			"adaptsearch": func() ([]int, setsim.Stats, error) { return ap.Search(q) },
			"partalloc":   func() ([]int, setsim.Stats, error) { return pa.Search(q) },
		} {
			res, _, err := got()
			if err != nil {
				t.Fatal(err)
			}
			if !sameInts(res, want) {
				t.Fatalf("%s: exactness violated for query %d", name, qi)
			}
		}
	}
}

func TestIntegrationEditDistance(t *testing.T) {
	strs := dataset.IMDB(4000, 3)
	dict, err := strdist.BuildGramDict(strs, 2)
	if err != nil {
		t.Fatal(err)
	}
	db, err := strdist.NewDB(strs, dict, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, qi := range dataset.SampleQueries(len(strs), 10, 3) {
		q := strs[qi]
		want := db.SearchLinear(q)
		piv, pivStats, err := db.Search(q, strdist.PivotalOptions())
		if err != nil {
			t.Fatal(err)
		}
		ring, ringStats, err := db.Search(q, strdist.RingOptions(3))
		if err != nil {
			t.Fatal(err)
		}
		if !sameInts(piv, want) || !sameInts(ring, want) {
			t.Fatalf("exactness violated for query %q", q)
		}
		if ringStats.Cand2 > ringStats.Cand1 || pivStats.Cand2 > pivStats.Cand1 {
			t.Fatal("cand-2 exceeded cand-1")
		}
	}
}

func TestIntegrationGraphEditDistance(t *testing.T) {
	graphs := dataset.AIDS(250, 4)
	db, err := graph.NewDB(graphs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, qi := range dataset.SampleQueries(len(graphs), 5, 4) {
		q := graphs[qi]
		want := db.SearchLinear(q)
		pars, parsStats, err := db.Search(q, graph.ParsOptions())
		if err != nil {
			t.Fatal(err)
		}
		ring, ringStats, err := db.Search(q, graph.RingOptions(3))
		if err != nil {
			t.Fatal(err)
		}
		if !sameInts(pars, want) || !sameInts(ring, want) {
			t.Fatalf("exactness violated for query %d", qi)
		}
		if ringStats.Candidates > parsStats.Candidates {
			t.Fatalf("ring candidates %d > pars %d", ringStats.Candidates, parsStats.Candidates)
		}
	}
}

// TestIntegrationPaperIntroExample ties the narrative together: the
// entity-resolution scenario from the paper's introduction, end to end.
func TestIntegrationPaperIntroExample(t *testing.T) {
	names := append(dataset.IMDB(1000, 5),
		"al-qaeda", "al-qaida", "al-qa'ida")
	dict, err := strdist.BuildGramDict(names, 2)
	if err != nil {
		t.Fatal(err)
	}
	db, err := strdist.NewDB(names, dict, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := db.Search("al-qaeda", strdist.RingOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, id := range res {
		found[db.String(id)] = true
	}
	for _, want := range []string{"al-qaeda", "al-qaida", "al-qa'ida"} {
		if !found[want] {
			t.Errorf("spelling variant %q not found (results: %v)", want, res)
		}
	}
}

// TestIntegrationSelfJoin runs the paper's other headline workload end
// to end: dedup via the engine's all-pairs self-join. The spelling
// variants planted in the corpus must surface as pairs, identically on
// a sharded and an unsharded index, with the backend's quadratic
// reference join agreeing.
func TestIntegrationSelfJoin(t *testing.T) {
	names := append(dataset.IMDB(800, 5),
		"al-qaeda", "al-qaida", "al-qa'ida")
	dict, err := strdist.BuildGramDict(names, 2)
	if err != nil {
		t.Fatal(err)
	}
	db, err := strdist.NewDB(names, dict, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref := db.JoinLinear()

	ctx := context.Background()
	var prev []engine.Pair
	for _, shards := range []int{1, 4} {
		ix, err := engine.BuildString(names, 2, 2, shards, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := ix.Join(ctx, engine.JoinOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("shards=%d: %d pairs, want %d", shards, len(got), len(ref))
		}
		for i, p := range ref {
			if got[i] != (engine.Pair{I: int64(p.I), J: int64(p.J)}) {
				t.Fatalf("shards=%d: pair %d = %v, want %v", shards, i, got[i], p)
			}
		}
		if st.Pairs != len(ref) {
			t.Fatalf("shards=%d: Stats.Pairs = %d, want %d", shards, st.Pairs, len(ref))
		}
		if prev != nil {
			for i := range prev {
				if got[i] != prev[i] {
					t.Fatalf("shard counts disagree at pair %d: %v vs %v", i, got[i], prev[i])
				}
			}
		}
		prev = got
	}

	// The planted variants (the last three ids) all pair with each
	// other: distances al-qaeda↔al-qaida = 1, ↔al-qa'ida = 2.
	base := int64(len(names) - 3)
	wantPairs := []engine.Pair{
		{I: base, J: base + 1}, {I: base, J: base + 2}, {I: base + 1, J: base + 2},
	}
	for _, w := range wantPairs {
		found := false
		for _, p := range prev {
			if p == w {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("variant pair %v missing from join output", w)
		}
	}
}

// TestIntegrationTokenPipeline exercises the dictionary path queries
// take in applications: raw tokens → relabel → search.
func TestIntegrationTokenPipeline(t *testing.T) {
	raw := [][]int32{
		{100, 200, 300, 400},
		{100, 200, 300, 401},
		{500, 600, 700, 800},
	}
	dict := tokenset.BuildDictionary(raw)
	sets := dict.RelabelAll(raw)
	cfg := setsim.Config{Measure: setsim.Jaccard, Tau: 0.6, M: 4}
	db, err := setsim.NewPKWiseDB(sets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh query arrives as raw tokens and is relabeled through the
	// same dictionary.
	q := dict.Relabel([]int32{100, 200, 300, 402})
	res, _, err := db.Search(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0] != 0 || res[1] != 1 {
		t.Errorf("results = %v, want [0 1]", res)
	}
}

func sameInts(a, b []int) bool {
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
