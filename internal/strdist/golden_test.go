package strdist_test

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/strdist"
)

// goldenPath pins what the filter and verifier answer on two seeded
// corpora: ids and every Stats counter of each search, over the full
// id range and over a window. A layout or kernel change that keeps the
// paper's semantics leaves every line identical.
const goldenPath = "testdata/search-golden.txt"

// goldenLines runs Pivotal and Ring(l) for every l in 1…τ+1 at τ 1–3
// over a sampled IMDB and PubMed corpus. Most queries are corpus
// members; the rest come from a differently seeded generator, carry
// bytes no corpus gram holds, or are too short for the signature
// scheme. Each search runs once over [0, n) and once over the window
// [n/4, 3n/4).
func goldenLines(t testing.TB) []string {
	t.Helper()
	corpora := []struct {
		name    string
		strs    []string
		foreign []string
		kappa   func(tau int) int
	}{
		// The paper's gram lengths for short names (κ = 3 at τ = 1,
		// else 2); κ = 2 keeps PubMed's long titles probe-heavy.
		{"imdb", withShort(dataset.IMDB(1000, 11)), dataset.IMDB(6, 12), func(tau int) int { return max(2, 4-tau) }},
		{"pubmed", withShort(dataset.PubMed(300, 11)), dataset.PubMed(4, 12), func(int) int { return 2 }},
	}
	var out []string
	for _, c := range corpora {
		var qs []string
		for _, id := range dataset.SampleQueries(len(c.strs), 24, 13) {
			qs = append(qs, c.strs[id])
		}
		qs = append(qs, c.foreign...)
		// Unknown grams: a corpus string with '#' bytes spliced in.
		for _, id := range []int{3, 17} {
			s := c.strs[id]
			qs = append(qs, "#"+s[:len(s)/2]+"##"+s[len(s)/2:])
		}
		// Degenerate: fewer than κτ+1 grams at some τ.
		qs = append(qs, "", "ab", c.strs[5][:5], c.strs[9][:7])
		n := len(c.strs)
		for tau := 1; tau <= 3; tau++ {
			dict, err := strdist.BuildGramDict(c.strs, c.kappa(tau))
			if err != nil {
				t.Fatal(err)
			}
			db, err := strdist.NewDB(c.strs, dict, tau)
			if err != nil {
				t.Fatal(err)
			}
			opts := []strdist.Options{strdist.PivotalOptions()}
			for l := 1; l <= tau+1; l++ {
				opts = append(opts, strdist.RingOptions(l))
			}
			for qi, q := range qs {
				for _, opt := range opts {
					name := "pivotal"
					if opt.Ring {
						name = fmt.Sprintf("ring%d", opt.ChainLength)
					}
					ids, st, err := db.Search(q, opt)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, goldenLine(c.name, tau, qi, name, "full", st, ids))
					var wst strdist.Stats
					wids, err := db.SearchRangeAppend(q, opt, n/4, 3*n/4, nil, &wst)
					if err != nil {
						t.Fatal(err)
					}
					win := make([]int, len(wids))
					for i, id := range wids {
						win[i] = int(id)
					}
					out = append(out, goldenLine(c.name, tau, qi, name, fmt.Sprintf("win=%d-%d", n/4, 3*n/4), wst, win))
				}
			}
		}
	}
	return out
}

// withShort inserts, mid-corpus, prefixes of a few corpus strings too
// short to carry τ+1 pivotal grams, so the short-string bypass has
// members inside the window as well as in the full range.
func withShort(strs []string) []string {
	var short []string
	for i, k := range []int{1, 3, 4, 5, 6, 7, 9} {
		short = append(short, strs[i][:k])
	}
	return slices.Insert(strs, len(strs)/2, short...)
}

func goldenLine(corpus string, tau, qi int, opt, rng string, st strdist.Stats, ids []int) string {
	var b strings.Builder
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprint(&b, id)
	}
	return fmt.Sprintf("%s tau=%d q=%d %s %s c1=%d c2=%d probes=%d box=%d fb=%d res=%d ids=%s",
		corpus, tau, qi, opt, rng, st.Cand1, st.Cand2, st.Probes, st.BoxChecks, st.Fallback, st.Results, b.String())
}

// TestSearchMatchesGolden: every search answers the recorded ids and
// counters, line for line.
func TestSearchMatchesGolden(t *testing.T) {
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := goldenLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d searches, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("line %d:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}
}
