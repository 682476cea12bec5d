package dataset

import (
	"testing"

	"repro/internal/tokenset"
)

func TestDeterminism(t *testing.T) {
	a := GIST(200, 7)
	b := GIST(200, 7)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("GIST not deterministic")
		}
	}
	c := GIST(200, 8)
	diff := 0
	for i := range a {
		if !a[i].Equal(c[i]) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical data")
	}
	e1, e2 := Enron(100, 1), Enron(100, 1)
	for i := range e1 {
		if len(e1[i]) != len(e2[i]) {
			t.Fatal("Enron not deterministic")
		}
	}
	s1, s2 := IMDB(100, 1), IMDB(100, 1)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("IMDB not deterministic")
		}
	}
	g1, g2 := AIDS(50, 1), AIDS(50, 1)
	for i := range g1 {
		if g1[i].N() != g2[i].N() || g1[i].EdgeCount() != g2[i].EdgeCount() {
			t.Fatal("AIDS not deterministic")
		}
	}
}

func TestBinaryShapes(t *testing.T) {
	g := GIST(500, 1)
	if len(g) != 500 || g[0].Dim() != 256 {
		t.Fatalf("GIST shape: n=%d d=%d", len(g), g[0].Dim())
	}
	s := SIFT(300, 1)
	if len(s) != 300 || s[0].Dim() != 512 {
		t.Fatalf("SIFT shape: n=%d d=%d", len(s), s[0].Dim())
	}
	// Roughly half the bits set on average (binary codes are balanced).
	pop := 0
	for _, v := range g {
		pop += v.Popcount()
	}
	avg := float64(pop) / float64(len(g))
	if avg < 100 || avg > 156 {
		t.Errorf("GIST average popcount %v far from 128", avg)
	}
}

func TestSetShapes(t *testing.T) {
	e := Enron(400, 1)
	if err := tokenset.Validate(e); err != nil {
		t.Fatal(err)
	}
	st := SetStats(e)
	if st.AvgSize < 70 || st.AvgSize > 160 {
		t.Errorf("Enron avg size %v far from ~110-142", st.AvgSize)
	}
	d := DBLP(400, 1)
	if err := tokenset.Validate(d); err != nil {
		t.Fatal(err)
	}
	std := SetStats(d)
	if std.AvgSize < 7 || std.AvgSize > 18 {
		t.Errorf("DBLP avg size %v far from ~14", std.AvgSize)
	}
}

func TestStringShapes(t *testing.T) {
	im := IMDB(500, 1)
	sti := StringStats(im)
	if sti.AvgSize < 10 || sti.AvgSize > 24 {
		t.Errorf("IMDB avg length %v far from ~16", sti.AvgSize)
	}
	pm := PubMed(200, 1)
	stp := StringStats(pm)
	if stp.AvgSize < 75 || stp.AvgSize > 130 {
		t.Errorf("PubMed avg length %v far from ~101", stp.AvgSize)
	}
}

func TestGraphShapes(t *testing.T) {
	a := AIDS(100, 1)
	sta := GraphStats(a)
	if sta.AvgSize < 10 || sta.AvgSize > 18 {
		t.Errorf("AIDS avg vertices %v out of scaled range", sta.AvgSize)
	}
	p := Protein(100, 1)
	stp := GraphStats(p)
	if stp.AvgSize < 12 || stp.AvgSize > 19 {
		t.Errorf("Protein avg vertices %v out of scaled range", stp.AvgSize)
	}
	// Protein graphs are denser than AIDS graphs (paper: 56 vs 28 edges
	// at comparable vertex counts).
	var ae, pe, av, pv float64
	for _, g := range a {
		ae += float64(g.EdgeCount())
		av += float64(g.N())
	}
	for _, g := range p {
		pe += float64(g.EdgeCount())
		pv += float64(g.N())
	}
	if pe/pv <= ae/av {
		t.Errorf("Protein density %v not above AIDS density %v", pe/pv, ae/av)
	}
}

func TestPlantedDuplicatesGiveResults(t *testing.T) {
	// High-similarity neighbours must exist, or the paper's threshold
	// ranges would return empty result sets.
	sets := Enron(600, 2)
	found := 0
	for i := 0; i < 100; i++ {
		for j := range sets {
			if j != i && tokenset.Jaccard(sets[i], sets[j]) >= 0.8 {
				found++
				break
			}
		}
	}
	if found == 0 {
		t.Error("no Jaccard-0.8 neighbours planted in Enron data")
	}
}

func TestSampleQueries(t *testing.T) {
	idx := SampleQueries(100, 10, 3)
	if len(idx) != 10 {
		t.Fatalf("got %d queries", len(idx))
	}
	seen := map[int]bool{}
	for _, i := range idx {
		if i < 0 || i >= 100 || seen[i] {
			t.Fatalf("bad sample %v", idx)
		}
		seen[i] = true
	}
	if got := SampleQueries(5, 10, 3); len(got) != 5 {
		t.Errorf("oversampling should clamp: %d", len(got))
	}
	a := SampleQueries(100, 10, 4)
	b := SampleQueries(100, 10, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SampleQueries not deterministic")
		}
	}
}

// TestTinyCorpora: every generator builds n ∈ {0, …, 4} objects. The
// planted-duplicate loops copy from the first half, which is empty at
// n = 1.
func TestTinyCorpora(t *testing.T) {
	for n := 0; n <= 4; n++ {
		for i, got := range []int{
			len(GIST(n, 1)), len(SIFT(n, 1)), len(DBLP(n, 1)), len(Enron(n, 1)),
			len(IMDB(n, 1)), len(PubMed(n, 1)), len(AIDS(n, 1)), len(Protein(n, 1)),
		} {
			if got != n {
				t.Fatalf("generator %d at n=%d: %d objects", i, n, got)
			}
		}
	}
}
