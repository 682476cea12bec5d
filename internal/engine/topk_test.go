package engine

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/setsim"
	"repro/internal/strdist"
	"repro/internal/tokenset"
)

// The top-k oracle tests: per problem, a brute-force k-NN over the raw
// data — every object within the backend's ceiling, sorted by
// (Distance, ID) ascending — is compared exactly (ids and distances)
// against SearchTopK on both the unsharded and the sharded index, and
// the two indexes are additionally required to agree byte for byte.

// oracleTopK truncates a full (Distance, ID)-sorted candidate list to
// the k best.
func oracleTopK(all []Result, k int) []Result {
	if len(all) > k {
		all = all[:k]
	}
	if len(all) == 0 {
		return nil
	}
	return all
}

// checkTopK runs one (query, options) pair against the unsharded
// oracle answer and verifies the sharded index reproduces the
// unsharded result exactly.
func checkTopK(t *testing.T, unsharded, sharded Index, q Query, opt Options, want []Result) {
	t.Helper()
	got, st, err := unsharded.SearchTopK(context.Background(), q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("k=%d: unsharded top-k\n got %v\nwant %v", opt.TopK, got, want)
	}
	if st.Results != len(got) {
		t.Fatalf("k=%d: Stats.Results = %d, returned %d", opt.TopK, st.Results, len(got))
	}
	if st.Rungs < 1 {
		t.Fatalf("k=%d: Stats.Rungs = %d, want ≥ 1", opt.TopK, st.Rungs)
	}
	for i := 1; i < len(got); i++ {
		if compareResult(got[i-1], got[i]) >= 0 {
			t.Fatalf("k=%d: results out of (Distance, ID) order at %d: %v", opt.TopK, i, got)
		}
	}

	got2, st2, err := sharded.SearchTopK(context.Background(), q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got2, got) {
		t.Fatalf("k=%d: sharded top-k diverged\n got %v\nwant %v", opt.TopK, got2, got)
	}
	if st2.Results != len(got2) {
		t.Fatalf("k=%d: sharded Stats.Results = %d, returned %d", opt.TopK, st2.Results, len(got2))
	}
	if sh, ok := sharded.(*Sharded); ok {
		if len(st2.PerShard) != sh.Shards() {
			t.Fatalf("k=%d: per-shard stats %d entries, want %d", opt.TopK, len(st2.PerShard), sh.Shards())
		}
		if st2.Rungs < sh.Shards() {
			t.Fatalf("k=%d: sharded Rungs = %d, want ≥ one per shard (%d)", opt.TopK, st2.Rungs, sh.Shards())
		}
	}
}

func TestTopKOracleHamming(t *testing.T) {
	vecs := dataset.GIST(500, 21)
	unsharded, err := BuildHamming(vecs, 16, 24, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := BuildHamming(vecs, 16, 24, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	oracle := func(q bitvec.Vector, cap int) []Result {
		var all []Result
		for id, v := range vecs {
			d := bitvec.Hamming(v, q)
			if cap < 0 || d <= cap {
				all = append(all, Result{ID: int64(id), Distance: float64(d)})
			}
		}
		slices.SortFunc(all, compareResult)
		return all
	}
	for _, qi := range dataset.SampleQueries(len(vecs), 5, 22) {
		q := vecs[qi]
		// Default options: the ladder's ceiling is the vector dimension
		// (the index default τ is a threshold-search default, not a
		// top-k cap), so this is the full k-NN.
		full := oracle(q, -1)
		for _, k := range []int{1, 3, 10, len(vecs) + 5} {
			checkTopK(t, unsharded, sharded, VectorQuery(q), Options{TopK: k}, oracleTopK(full, k))
		}
		// An explicit Options.Tau caps the ladder: results stay within
		// that radius, even when fewer than k exist.
		capped := oracle(q, 10)
		for _, k := range []int{2, len(capped) + 3} {
			checkTopK(t, unsharded, sharded, VectorQuery(q),
				Options{TopK: k, Tau: Tau(10)}, oracleTopK(capped, k))
		}
		// The pigeonhole baseline (l=1) must return the same answer.
		checkTopK(t, unsharded, sharded, VectorQuery(q),
			Options{TopK: 5, ChainLength: 1}, oracleTopK(full, 5))
	}
}

func TestTopKOracleSetJaccard(t *testing.T) {
	sets := dataset.DBLP(600, 23)
	cfg := setsim.Config{Measure: setsim.Jaccard, Tau: 0.7, M: 5}
	unsharded, err := BuildSet(sets, cfg, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := BuildSet(sets, cfg, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	oracle := func(q tokenset.Set) []Result {
		var all []Result
		for id, x := range sets {
			o := tokenset.Overlap(x, q)
			if o >= tokenset.RequiredOverlap(len(x), len(q), cfg.Tau) {
				sim := float64(o) / float64(len(x)+len(q)-o)
				all = append(all, Result{ID: int64(id), Distance: 1 - sim})
			}
		}
		slices.SortFunc(all, compareResult)
		return all
	}
	for _, qi := range dataset.SampleQueries(len(sets), 5, 24) {
		q := sets[qi]
		full := oracle(q)
		for _, k := range []int{1, 4, len(sets) + 1} {
			checkTopK(t, unsharded, sharded, SetQuery(q), Options{TopK: k}, oracleTopK(full, k))
		}
	}
}

func TestTopKOracleSetOverlap(t *testing.T) {
	sets := dataset.DBLP(400, 25)
	cfg := setsim.Config{Measure: setsim.Overlap, Tau: 3, M: 4}
	unsharded, err := BuildSet(sets, cfg, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := BuildSet(sets, cfg, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	oracle := func(q tokenset.Set) []Result {
		var all []Result
		for id, x := range sets {
			if o := tokenset.Overlap(x, q); o >= int(cfg.Tau) {
				// Under the Overlap measure "nearest" is "largest
				// overlap": the engine maps similarity s onto distance −s.
				all = append(all, Result{ID: int64(id), Distance: -float64(o)})
			}
		}
		slices.SortFunc(all, compareResult)
		return all
	}
	for _, qi := range dataset.SampleQueries(len(sets), 4, 26) {
		q := sets[qi]
		full := oracle(q)
		for _, k := range []int{1, 5, len(sets) + 1} {
			checkTopK(t, unsharded, sharded, SetQuery(q), Options{TopK: k}, oracleTopK(full, k))
		}
	}
}

func TestTopKOracleString(t *testing.T) {
	strs := dataset.IMDB(600, 27)
	unsharded, err := BuildString(strs, 2, 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := BuildString(strs, 2, 3, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	oracle := func(q string) []Result {
		var all []Result
		for id, s := range strs {
			// Ceiling = the built τ: an index built for τ=3 cannot see
			// objects further away.
			if d := strdist.EditDistanceWithin(s, q, 3); d >= 0 {
				all = append(all, Result{ID: int64(id), Distance: float64(d)})
			}
		}
		slices.SortFunc(all, compareResult)
		return all
	}
	for _, qi := range dataset.SampleQueries(len(strs), 5, 28) {
		q := strs[qi]
		full := oracle(q)
		for _, k := range []int{1, 3, len(strs) + 1} {
			checkTopK(t, unsharded, sharded, StringQuery(q), Options{TopK: k}, oracleTopK(full, k))
		}
		checkTopK(t, unsharded, sharded, StringQuery(q),
			Options{TopK: 2, ChainLength: 1}, oracleTopK(full, 2))
	}
}

func TestTopKOracleGraph(t *testing.T) {
	graphs := dataset.AIDS(90, 29)
	unsharded, err := BuildGraph(graphs, 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := BuildGraph(graphs, 3, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	oracle := func(q *graph.Graph) []Result {
		var all []Result
		for id, g := range graphs {
			if d := graph.GEDWithin(g, q, 3); d >= 0 {
				all = append(all, Result{ID: int64(id), Distance: float64(d)})
			}
		}
		slices.SortFunc(all, compareResult)
		return all
	}
	for _, qi := range dataset.SampleQueries(len(graphs), 4, 30) {
		q := graphs[qi]
		full := oracle(q)
		for _, k := range []int{1, 3, len(graphs) + 1} {
			checkTopK(t, unsharded, sharded, GraphQuery(q), Options{TopK: k}, oracleTopK(full, k))
		}
		checkTopK(t, unsharded, sharded, GraphQuery(q),
			Options{TopK: 2, ChainLength: 1}, oracleTopK(full, 2))
	}
}

// TestTopKContextCancelMidLadder cancels the context from the Rung
// hook after the first rung completes and expects the ladder to stop
// with the context's error rather than climbing on.
func TestTopKContextCancelMidLadder(t *testing.T) {
	vecs := dataset.GIST(400, 31)
	for _, shards := range []int{1, 3} {
		ix, err := BuildHamming(vecs, 16, 24, shards, 0)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		opt := Options{
			// k = corpus size forces the ladder past its first rung.
			TopK:  len(vecs),
			Hooks: &Hooks{Rung: func(rung int, tau float64, candidates int) { cancel() }},
		}
		_, _, err = ix.SearchTopK(ctx, VectorQuery(vecs[0]), opt)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("shards=%d: err = %v, want context.Canceled", shards, err)
		}
	}
}

// TestTopKRungHook checks the Rung callback fires once per climbed
// rung with ascending 1-based ordinals and ascending bounds.
func TestTopKRungHook(t *testing.T) {
	vecs := dataset.GIST(400, 32)
	ix, err := BuildHamming(vecs, 16, 24, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var rungs []int
	var taus []float64
	opt := Options{
		TopK: 40,
		Hooks: &Hooks{Rung: func(rung int, tau float64, candidates int) {
			rungs = append(rungs, rung)
			taus = append(taus, tau)
		}},
	}
	_, st, err := ix.SearchTopK(context.Background(), VectorQuery(vecs[0]), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rungs) != st.Rungs {
		t.Fatalf("hook fired %d times, Stats.Rungs = %d", len(rungs), st.Rungs)
	}
	for i := range rungs {
		if rungs[i] != i+1 {
			t.Fatalf("rung ordinals %v, want 1-based ascending", rungs)
		}
		if i > 0 && taus[i] <= taus[i-1] {
			t.Fatalf("rung bounds %v not strictly ascending", taus)
		}
	}
}

func TestTopKValidation(t *testing.T) {
	vecs := dataset.GIST(100, 33)
	for _, shards := range []int{1, 2} {
		ix, err := BuildHamming(vecs, 16, 24, shards, 0)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		q := VectorQuery(vecs[0])
		for name, opt := range map[string]Options{
			"k=0":        {},
			"k<0":        {TopK: -2},
			"limit":      {TopK: 3, Limit: 5},
			"skipVerify": {TopK: 3, SkipVerify: true},
			"timings":    {TopK: 3, Timings: true},
		} {
			if _, _, err := ix.SearchTopK(ctx, q, opt); err == nil {
				t.Fatalf("shards=%d: SearchTopK accepted %s", shards, name)
			}
		}
		// The threshold entry points reject TopK instead of silently
		// ignoring it.
		if _, _, err := ix.Search(ctx, q, Options{TopK: 3}); !errors.Is(err, errTopKViaSearch) {
			t.Fatalf("shards=%d: Search with TopK: err = %v", shards, err)
		}
		var seqErr error
		for _, err := range ix.SearchSeq(ctx, q, Options{TopK: 3}) {
			seqErr = err
		}
		if !errors.Is(seqErr, errTopKViaSearch) {
			t.Fatalf("shards=%d: SearchSeq with TopK: err = %v", shards, seqErr)
		}
		// Kind mismatch still wins over option validation.
		if _, _, err := ix.SearchTopK(ctx, StringQuery("x"), Options{TopK: 3}); err == nil {
			t.Fatal("string query against hamming index accepted")
		}
	}
}

func TestSearchBatchTopK(t *testing.T) {
	vecs := dataset.GIST(400, 34)
	ix, err := BuildHamming(vecs, 16, 24, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	var queries []Query
	for _, qi := range dataset.SampleQueries(len(vecs), 8, 35) {
		queries = append(queries, VectorQuery(vecs[qi]))
	}
	opt := Options{TopK: 6}
	batch := SearchBatch(context.Background(), ix, queries, opt, 4)
	if len(batch) != len(queries) {
		t.Fatalf("batch returned %d results for %d queries", len(batch), len(queries))
	}
	for i, r := range batch {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.IDs != nil {
			t.Fatalf("result %d: top-k batch filled IDs: %v", i, r.IDs)
		}
		want, _, err := ix.SearchTopK(context.Background(), queries[i], opt)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(r.TopK, want) {
			t.Fatalf("result %d: batch top-k %v, want %v", i, r.TopK, want)
		}
	}
}

// TestTopKStringVerifyTauLadder pins the backend-level contract the
// string/graph ladders rely on: tightening only VerifyTau answers
// exactly the threshold-b search, for every b up to the built τ.
func TestTopKStringVerifyTauLadder(t *testing.T) {
	strs := dataset.IMDB(400, 36)
	dict, err := strdist.BuildGramDict(strs, 2)
	if err != nil {
		t.Fatal(err)
	}
	db, err := strdist.NewDB(strs, dict, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := strs[7]
	// b = 0 is "unset" by the VerifyTau convention, so the ladder's
	// rungs start at 1.
	for b := 1; b <= 3; b++ {
		opt := strdist.RingOptions(3)
		opt.VerifyTau = b
		got, _, err := db.Search(q, opt)
		if err != nil {
			t.Fatal(err)
		}
		var want []int
		for id, s := range strs {
			if d := strdist.EditDistanceWithin(s, q, b); d >= 0 {
				want = append(want, id)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("VerifyTau=%d: ids %v, want %v", b, got, want)
		}
	}
}
