package strdist

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
)

// TestSearchRangeAppendParity pins the three entry points to one
// another and to the linear scan: Search answers exactly SearchLinear,
// SearchDist the same ids with their exact
// edit distances, SearchRangeAppend over [0, n) the same ids and Stats,
// and any partition of [0, n) into windows the same ids in order with
// every Stats counter summing to the full-range figure — the contract
// the engine's plain search and tiled join build on.
func TestSearchRangeAppendParity(t *testing.T) {
	const tau = 2
	strs := append(dataset.IMDB(200, 33), "", "ab", "abcd", "xyz", "a")
	n := len(strs)
	dict, err := BuildGramDict(strs, 2)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDB(strs, dict, tau)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.short) == 0 {
		t.Fatal("fixture holds no short strings")
	}
	rng := rand.New(rand.NewSource(5))
	queries := []string{"", "abc"} // empty, and degenerate: fewer than κτ+1 grams
	for qi := 0; qi < 12; qi++ {
		q := strs[rng.Intn(200)]
		queries = append(queries, q) // in-corpus
		if len(q) > 3 {
			b := []byte(q)
			b[rng.Intn(len(b))] = 'Q'
			queries = append(queries, string(b[1:])) // out-of-corpus
		}
	}
	opts := map[string]Options{
		"pivotal":   PivotalOptions(),
		"ring l=1":  RingOptions(1),
		"ring l=2":  RingOptions(2),
		"ring l=3":  RingOptions(3),
		"ring skip": {Ring: true, ChainLength: 3, SkipVerify: true},
	}
	for name, opt := range opts {
		for qi, q := range queries {
			ids, st, err := db.Search(q, opt)
			if err != nil {
				t.Fatal(err)
			}
			var linear []int
			for id, x := range strs {
				if !opt.SkipVerify && EditDistanceWithin(x, q, tau) >= 0 {
					linear = append(linear, id)
				}
			}
			if !slices.Equal(ids, linear) || st.Results != len(ids) {
				t.Fatalf("%s q%d %q: Search %v (Results %d), want %v", name, qi, q, ids, st.Results, linear)
			}

			dids, dists, dst, err := db.SearchDist(q, opt)
			if err != nil {
				t.Fatal(err)
			}
			if dst != st || len(dists) != len(dids) {
				t.Fatalf("%s q%d: SearchDist stats %+v (%d dists, %d ids), want %+v", name, qi, dst, len(dists), len(dids), st)
			}
			for i, id := range dids {
				if d := EditDistance(strs[id], q); dists[i] != d {
					t.Fatalf("%s q%d: SearchDist id %d distance %d, want %d", name, qi, id, dists[i], d)
				}
			}
			if dids = slices.Sorted(slices.Values(dids)); !slices.Equal(dids, ids) {
				t.Fatalf("%s q%d: SearchDist ids %v, want %v", name, qi, dids, ids)
			}

			var rst Stats
			got, err := db.SearchRangeAppend(q, opt, -5, n+10, nil, &rst)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(int64s(ids), got) || rst != st {
				t.Fatalf("%s q%d: full range %v %+v, want %v %+v", name, qi, got, rst, ids, st)
			}

			// A random partition of [0, n), empty windows included.
			cuts := []int{0, n}
			for k := rng.Intn(6); k > 0; k-- {
				cuts = append(cuts, rng.Intn(n+1))
			}
			slices.Sort(cuts)
			var sum Stats
			got = []int64{-7}
			for w := 0; w+1 < len(cuts); w++ {
				if got, err = db.SearchRangeAppend(q, opt, cuts[w], cuts[w+1], got, &sum); err != nil {
					t.Fatal(err)
				}
			}
			if got[0] != -7 || !slices.Equal(got[1:], int64s(ids)) || sum != st {
				t.Fatalf("%s q%d windows %v: %v %+v, want %v %+v", name, qi, cuts, got, sum, ids, st)
			}
		}
	}
}

func int64s(ids []int) []int64 {
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[i] = int64(id)
	}
	return out
}

// TestLongStringsExact: strings longer than a posting's 16-bit length
// and position fields bypass the signature scheme, and one exactly at
// the limit is indexed; near-copies of either, and a plain query, are
// answered by Search and SearchRangeAppend exactly like SearchLinear.
func TestLongStringsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	long := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(20))
		}
		return string(b)
	}
	over, limit := long(70_000), long(65_535)
	strs := append(dataset.IMDB(40, 3), over, limit)
	strs = append(strs, dataset.IMDB(40, 4)...)
	dict, err := BuildGramDict(strs, 2)
	if err != nil {
		t.Fatal(err)
	}
	const tau = 2
	db, err := NewDB(strs, dict, tau)
	if err != nil {
		t.Fatal(err)
	}
	if !isShort(db, 40) || isShort(db, 41) {
		t.Fatalf("short(70000 bytes) = %v, short(65535 bytes) = %v; want true, false", isShort(db, 40), isShort(db, 41))
	}
	edit := func(s string, at int) string { return s[:at] + "Z" + s[at+2:] } // one substitution, one deletion
	queries := []string{edit(over, 50_000), edit(over, 3), edit(limit, 65_000), edit(limit, 100), strs[7], "Z" + limit}
	n := len(strs)
	for qi, q := range queries {
		want := db.SearchLinear(q)
		if qi < 4 && len(want) == 0 {
			t.Fatalf("q%d: the near-copy is not within τ of its source", qi)
		}
		for _, opt := range []Options{PivotalOptions(), RingOptions(3)} {
			ids, st, err := db.Search(q, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(ids, want) || st.Results != len(want) {
				t.Fatalf("q%d opt=%+v: Search %v (Results %d), want %v", qi, opt, ids, st.Results, want)
			}
			for _, w := range [][2]int{{0, n}, {0, 41}, {40, 42}, {41, n}} {
				got, err := db.SearchRangeAppend(q, opt, w[0], w[1], nil, new(Stats))
				if err != nil {
					t.Fatal(err)
				}
				var in []int64
				for _, id := range want {
					if id >= w[0] && id < w[1] {
						in = append(in, int64(id))
					}
				}
				if !slices.Equal(got, in) {
					t.Fatalf("q%d opt=%+v window %v: SearchRangeAppend %v, want %v", qi, opt, w, got, in)
				}
			}
		}
	}
}
