package repro

// End-to-end examples from the paper's narrative. That every problem,
// configuration and chain length answers exactly like the linear scan
// is internal/engine's TestExactness.

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/setsim"
	"repro/internal/strdist"
	"repro/internal/tokenset"
)

// TestIntegrationPaperIntroExample ties the narrative together: the
// entity-resolution scenario from the paper's introduction, end to end.
// Each spelling variant finds the other two, so a self-join pairs all
// three.
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
	variants := []string{"al-qaeda", "al-qaida", "al-qa'ida"}
	for _, q := range variants {
		res, _, err := db.Search(q, strdist.RingOptions(3))
		if err != nil {
			t.Fatal(err)
		}
		found := map[string]bool{}
		for _, id := range res {
			found[db.String(id)] = true
		}
		for _, want := range variants {
			if !found[want] {
				t.Errorf("%q: spelling variant %q not found (results: %v)", q, want, res)
			}
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
