package engine

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/hamming"
)

// ladderShape is one hamming partitioning the top-k ladder is checked
// on. ceil is the largest ladder ceiling whose rungs stay cheap to
// enumerate: the dimension where every part is narrow, a small τ cap
// where parts are 40 to 64 bits wide.
type ladderShape struct{ d, m, ceil int }

var ladderShapes = []ladderShape{
	{64, 64, 64},    // 1-bit parts
	{64, 1, 3},      // one 64-bit part
	{100, 7, 100},   // 14- and 15-bit parts, one straddling a word
	{100, 100, 100}, // 1-bit parts over two words
	{128, 10, 128},  // 12- and 13-bit parts, straddling
	{128, 2, 5},     // two 64-bit parts
	{256, 20, 256},  // 12- and 13-bit parts, straddling
	{256, 4, 6},     // four 64-bit parts
	{256, 5, 10},    // 51- and 52-bit parts, straddling
}

// ladderVectors draws n d-bit vectors, most of them near a few random
// centers, so that top-k answers sit at a spread of distances.
func ladderVectors(rng *rand.Rand, n, d int) []bitvec.Vector {
	centers := make([]bitvec.Vector, 3)
	for i := range centers {
		centers[i] = bitvec.Random(rng, d)
	}
	vecs := make([]bitvec.Vector, n)
	for i := range vecs {
		if rng.Intn(4) == 0 {
			vecs[i] = bitvec.Random(rng, d)
			continue
		}
		v := centers[rng.Intn(len(centers))].Clone()
		for b := 0; b < d; b++ {
			if rng.Intn(16) == 0 {
				v.Flip(b)
			}
		}
		vecs[i] = v
	}
	return vecs
}

// refLadder is the top-k ladder rebuilt from independent
// hamming.DB.SearchDist calls: one per intLadder bound up to ceil,
// stopping at the first rung that verifies at least k results. It
// returns the k nearest and the summed counters of the rungs climbed.
func refLadder(t *testing.T, db *hamming.DB, q bitvec.Vector, k, ceil, l int) ([]Result, Stats) {
	t.Helper()
	var st Stats
	var all []Result
	for _, b := range intLadder(ceil) {
		ids, dists, hst, err := db.SearchDist(q, int(b), hamming.RingOptions(chain(l, 6)))
		if err != nil {
			t.Fatal(err)
		}
		st.Candidates += hst.Candidates
		st.Probes += hst.Probes
		st.BoxChecks += hst.BoxChecks
		st.Rungs++
		all = all[:0]
		for i, id := range ids {
			all = append(all, Result{ID: int64(id), Distance: float64(dists[i])})
		}
		if len(all) >= k {
			break
		}
	}
	slices.SortFunc(all, compareResult)
	return oracleTopK(all, k), st
}

// TestTopKLadderMatchesRungs: a plain hamming index's SearchTopK must
// return what the reference ladder of independent SearchDist calls
// returns and report the same Candidates, Probes, BoxChecks and Rungs,
// capped and uncapped, for corpus and random queries; the same index
// split into 2 and 4 shards must return the same results.
func TestTopKLadderMatchesRungs(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	const n = 200
	ctx := context.Background()
	for _, sh := range ladderShapes {
		vecs := ladderVectors(rng, n, sh.d)
		db, err := hamming.NewDB(vecs, sh.m)
		if err != nil {
			t.Fatal(err)
		}
		defTau := min(4, sh.ceil)
		plain, err := NewHamming(db, defTau)
		if err != nil {
			t.Fatal(err)
		}
		var shards []Index
		for _, s := range []int{2, 4} {
			ix, err := BuildHamming(vecs, sh.m, defTau, s, 0)
			if err != nil {
				t.Fatal(err)
			}
			shards = append(shards, ix)
		}
		caps := []int{0, sh.ceil / 2, sh.ceil}
		for qi := 0; qi < 6; qi++ {
			q := bitvec.Random(rng, sh.d)
			if qi%2 == 0 {
				q = vecs[rng.Intn(n)]
			}
			l := []int{0, 1, 3}[qi%3]
			for _, k := range []int{1, 5, n + 1} {
				for _, capped := range []bool{true, false} {
					opt := Options{TopK: k, ChainLength: l}
					ceil := sh.d
					if capped || sh.ceil < sh.d {
						c := float64(caps[rng.Intn(len(caps))])
						opt.Tau, ceil = &c, int(c)
					}
					want, wst := refLadder(t, db, q, k, ceil, l)
					got, st, err := plain.SearchTopK(ctx, VectorQuery(q), opt)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("d=%d m=%d query %d k=%d l=%d ceil=%d: top-k\n got %v\nwant %v", sh.d, sh.m, qi, k, l, ceil, got, want)
					}
					if st.Candidates != wst.Candidates || st.Probes != wst.Probes || st.BoxChecks != wst.BoxChecks || st.Rungs != wst.Rungs {
						t.Fatalf("d=%d m=%d query %d k=%d l=%d ceil=%d: cand %d probes %d box %d rungs %d, reference ladder cand %d probes %d box %d rungs %d",
							sh.d, sh.m, qi, k, l, ceil, st.Candidates, st.Probes, st.BoxChecks, st.Rungs,
							wst.Candidates, wst.Probes, wst.BoxChecks, wst.Rungs)
					}
					for _, ix := range shards {
						sgot, _, err := ix.SearchTopK(ctx, VectorQuery(q), opt)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(sgot, want) {
							t.Fatalf("d=%d m=%d query %d k=%d l=%d ceil=%d: %d-shard top-k\n got %v\nwant %v",
								sh.d, sh.m, qi, k, l, ceil, ix.(*Sharded).Shards(), sgot, want)
						}
					}
				}
			}
		}
	}
}
