package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/hamming"
	"repro/internal/setsim"
	"repro/internal/strdist"
	"repro/internal/tokenset"
)

// testIndexes builds one unsharded and one sharded index per problem
// over the same synthetic data, plus the sample queries to run.
type testCase struct {
	name      string
	unsharded Index
	sharded   Index
	queries   []Query
}

func buildCases(t *testing.T, shards int) []testCase {
	t.Helper()
	var cases []testCase

	vecs := dataset.GIST(600, 1)
	queries := dataset.SampleQueries(len(vecs), 6, 1)
	h1, err := BuildHamming(vecs, 16, 24, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	hN, err := BuildHamming(vecs, 16, 24, shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hq []Query
	for _, qi := range queries {
		hq = append(hq, VectorQuery(vecs[qi]))
	}
	cases = append(cases, testCase{"hamming", h1, hN, hq})

	sets := dataset.DBLP(800, 2)
	cfg := setsim.Config{Measure: setsim.Jaccard, Tau: 0.8, M: 5}
	s1, err := BuildSet(sets, cfg, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	sN, err := BuildSet(sets, cfg, shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sq []Query
	for _, qi := range dataset.SampleQueries(len(sets), 6, 2) {
		sq = append(sq, SetQuery(sets[qi]))
	}
	cases = append(cases, testCase{"set", s1, sN, sq})

	strs := dataset.IMDB(800, 3)
	t1, err := BuildString(strs, 2, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	tN, err := BuildString(strs, 2, 2, shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	var tq []Query
	for _, qi := range dataset.SampleQueries(len(strs), 6, 3) {
		tq = append(tq, StringQuery(strs[qi]))
	}
	cases = append(cases, testCase{"string", t1, tN, tq})

	graphs := dataset.AIDS(90, 4)
	g1, err := BuildGraph(graphs, 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	gN, err := BuildGraph(graphs, 3, shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	var gq []Query
	for _, qi := range dataset.SampleQueries(len(graphs), 4, 4) {
		gq = append(gq, GraphQuery(graphs[qi]))
	}
	cases = append(cases, testCase{"graph", g1, gN, gq})

	return cases
}

func sameIDs(a, b []int64) bool {
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

// TestShardedMatchesUnsharded is the acceptance-criterion test: for
// every problem, every query against the sharded index returns the
// exact id sequence the unsharded index returns.
func TestShardedMatchesUnsharded(t *testing.T) {
	for _, tc := range buildCases(t, 4) {
		t.Run(tc.name, func(t *testing.T) {
			sh, ok := tc.sharded.(*Sharded)
			if !ok {
				t.Fatalf("expected a *Sharded, got %T", tc.sharded)
			}
			if sh.Shards() != 4 {
				t.Fatalf("shards = %d, want 4", sh.Shards())
			}
			if sh.Len() != tc.unsharded.Len() {
				t.Fatalf("sharded Len = %d, unsharded %d", sh.Len(), tc.unsharded.Len())
			}
			for _, opt := range []Options{{}, {ChainLength: 1}} {
				for qi, q := range tc.queries {
					want, wantStats, err := tc.unsharded.Search(context.Background(), q, opt)
					if err != nil {
						t.Fatal(err)
					}
					got, gotStats, err := tc.sharded.Search(context.Background(), q, opt)
					if err != nil {
						t.Fatal(err)
					}
					if !sameIDs(got, want) {
						t.Fatalf("query %d l=%d: sharded ids %v != unsharded %v", qi, opt.ChainLength, got, want)
					}
					if gotStats.Results != wantStats.Results {
						t.Fatalf("query %d: sharded results %d != unsharded %d", qi, gotStats.Results, wantStats.Results)
					}
					if len(gotStats.PerShard) != 4 {
						t.Fatalf("query %d: per-shard stats %d entries, want 4", qi, len(gotStats.PerShard))
					}
					sum := 0
					for _, st := range gotStats.PerShard {
						sum += st.Candidates
					}
					if sum != gotStats.Candidates {
						t.Fatalf("query %d: aggregate candidates %d != per-shard sum %d", qi, gotStats.Candidates, sum)
					}
				}
			}
		})
	}
}

// parityBackend pairs one plain adapter with the raw backend entry
// points it must reproduce, each called at the chain length the
// adapter should resolve (l = 0 becomes the §8 default def).
type parityBackend struct {
	name    string
	ix      Index
	n       int
	m       int // box count: the largest meaningful chain length
	def     int // the paper's §8 default chain length
	queries []Query
	// search is the backend's full-corpus threshold search.
	search func(q Query, l int, skip bool) ([]int64, Stats)
	// window is the backend's range probe over [lo, hi).
	window func(q Query, l, lo, hi int) ([]int64, Stats)
	// bounds and rung are the top-k ladder: one rung's verified hits
	// as (id, distance) results, unordered.
	bounds []float64
	rung   func(q Query, l int, bound float64) ([]Result, Stats)
}

// toIDs widens backend result ids to the engine's global id type.
func toIDs(ids []int) []int64 {
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[i] = int64(id)
	}
	return out
}

// counters is the machine-independent part of a Stats.
func counters(st Stats) [4]int {
	return [4]int{st.Candidates, st.Results, st.Probes, st.BoxChecks}
}

func parityBackends(t *testing.T) []parityBackend {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var out []parityBackend

	vecs := dataset.GIST(400, 7)
	hdb, err := hamming.NewDB(vecs, 16)
	must(err)
	hix, err := NewHamming(hdb, 24)
	must(err)
	hq := []Query{VectorQuery(bitvec.Random(rand.New(rand.NewSource(12345)), hdb.Dim()))}
	for _, i := range dataset.SampleQueries(len(vecs), 7, 7) {
		hq = append(hq, VectorQuery(vecs[i]))
	}
	hopt := func(l int, skip bool) hamming.Options {
		o := hamming.RingOptions(l)
		o.SkipVerify = skip
		return o
	}
	hstats := func(st hamming.Stats) Stats {
		return Stats{Candidates: st.Candidates, Results: st.Results, Probes: st.Probes, BoxChecks: st.BoxChecks}
	}
	out = append(out, parityBackend{
		name: "hamming", ix: hix, n: len(vecs), m: 16, def: 6, queries: hq,
		search: func(q Query, l int, skip bool) ([]int64, Stats) {
			ids, st, err := hdb.Search(q.Vector(), 24, hopt(l, skip))
			must(err)
			return toIDs(ids), hstats(st)
		},
		window: func(q Query, l, lo, hi int) ([]int64, Stats) {
			var st hamming.Stats
			ids, err := hdb.SearchRangeAppend(q.Vector(), 24, hopt(l, false), lo, hi, nil, &st)
			must(err)
			return ids, hstats(st)
		},
		bounds: intLadder(hdb.Dim()),
		rung: func(q Query, l int, b float64) ([]Result, Stats) {
			ids, dists, st, err := hdb.SearchDist(q.Vector(), int(b), hopt(l, false))
			must(err)
			rs := make([]Result, len(ids))
			for i, id := range ids {
				rs[i] = Result{ID: int64(id), Distance: float64(dists[i])}
			}
			return rs, hstats(st)
		},
	})

	sets := dataset.DBLP(400, 8)
	cfg := setsim.Config{Measure: setsim.Jaccard, Tau: 0.8, M: 5}
	sdb, err := setsim.NewPKWiseDB(sets, cfg)
	must(err)
	six, err := NewSet(sdb)
	must(err)
	sq := []Query{SetQuery(tokenset.Set{0})}
	for _, i := range dataset.SampleQueries(len(sets), 7, 8) {
		sq = append(sq, SetQuery(sets[i]))
	}
	sstats := func(st setsim.Stats) Stats {
		return Stats{Candidates: st.Candidates, Results: st.Results, Probes: st.Probes, BoxChecks: st.BoxChecks}
	}
	out = append(out, parityBackend{
		name: "set", ix: six, n: len(sets), m: cfg.M, def: 2, queries: sq,
		search: func(q Query, l int, skip bool) ([]int64, Stats) {
			if skip {
				st, err := sdb.CountCandidates(q.Set(), l)
				must(err)
				return nil, sstats(st)
			}
			ids, st, err := sdb.Search(q.Set(), l)
			must(err)
			return toIDs(ids), sstats(st)
		},
		window: func(q Query, l, lo, hi int) ([]int64, Stats) {
			var st setsim.Stats
			ids, err := sdb.SearchRangeAppend(q.Set(), l, false, lo, hi, nil, &st)
			must(err)
			return ids, sstats(st)
		},
		bounds: []float64{cfg.Tau},
		rung: func(q Query, l int, _ float64) ([]Result, Stats) {
			ids, sims, st, err := sdb.SearchSim(q.Set(), l)
			must(err)
			rs := make([]Result, len(ids))
			for i, id := range ids {
				rs[i] = Result{ID: int64(id), Distance: 1 - sims[i]}
			}
			return rs, sstats(st)
		},
	})

	const strTau = 2
	// Two indexed strings too short for the signature scheme, so the
	// short query below reaches verification around the filters
	// (strdist Stats.Fallback).
	strs := append(dataset.IMDB(398, 9), "abc", "abcd")
	dict, err := strdist.BuildGramDict(strs, 2)
	must(err)
	tdb, err := strdist.NewDB(strs, dict, strTau)
	must(err)
	tix, err := NewString(tdb)
	must(err)
	// A far string (no results) and a degenerate short one.
	tq := []Query{StringQuery("qxqxqxqxqxqxqxqxqxqxqxqx"), StringQuery("ab")}
	for _, i := range dataset.SampleQueries(len(strs), 6, 9) {
		tq = append(tq, StringQuery(strs[i]))
	}
	topt := func(l int, skip bool) strdist.Options {
		o := strdist.RingOptions(l)
		if l == 1 {
			o = strdist.PivotalOptions()
		}
		o.SkipVerify = skip
		return o
	}
	tstats := func(st strdist.Stats) Stats {
		return Stats{Candidates: st.Cand2 + st.Fallback, Results: st.Results, Probes: st.Probes, BoxChecks: st.BoxChecks}
	}
	out = append(out, parityBackend{
		name: "string", ix: tix, n: len(strs), m: strTau + 1, def: min(3, strTau+1), queries: tq,
		search: func(q Query, l int, skip bool) ([]int64, Stats) {
			ids, st, err := tdb.Search(q.Text(), topt(l, skip))
			must(err)
			return toIDs(ids), tstats(st)
		},
		window: func(q Query, l, lo, hi int) ([]int64, Stats) {
			var st strdist.Stats
			ids, err := tdb.SearchRangeAppend(q.Text(), topt(l, false), lo, hi, nil, &st)
			must(err)
			return ids, tstats(st)
		},
		bounds: intLadder(strTau),
		rung: func(q Query, l int, b float64) ([]Result, Stats) {
			o := topt(l, false)
			o.VerifyTau = int(b)
			ids, dists, st, err := tdb.SearchDist(q.Text(), o)
			must(err)
			rs := make([]Result, len(ids))
			for i, id := range ids {
				rs[i] = Result{ID: int64(id), Distance: float64(dists[i])}
			}
			return rs, tstats(st)
		},
	})

	const graphTau = 3
	graphs := dataset.AIDS(60, 10)
	gdb, err := graph.NewDB(graphs, graphTau)
	must(err)
	gix, err := NewGraph(gdb)
	must(err)
	far := graph.New(30)
	for v := 1; v < far.N(); v++ {
		far.SetVertexLabel(v, 61)
		far.AddEdge(v-1, v, 2)
	}
	gq := []Query{GraphQuery(far)}
	for _, i := range dataset.SampleQueries(len(graphs), 7, 10) {
		gq = append(gq, GraphQuery(graphs[i]))
	}
	gopt := func(l int, skip bool) graph.Options {
		o := graph.RingOptions(l)
		if l == 1 {
			o = graph.ParsOptions()
		}
		o.SkipVerify = skip
		return o
	}
	gstats := func(st graph.Stats) Stats {
		return Stats{Candidates: st.Candidates, Results: st.Results, BoxChecks: st.BoxChecks}
	}
	out = append(out, parityBackend{
		name: "graph", ix: gix, n: len(graphs), m: graphTau + 1, def: max(1, graphTau-1), queries: gq,
		search: func(q Query, l int, skip bool) ([]int64, Stats) {
			ids, st, err := gdb.Search(q.Graph(), gopt(l, skip))
			must(err)
			return toIDs(ids), gstats(st)
		},
		window: func(q Query, l, lo, hi int) ([]int64, Stats) {
			var st graph.Stats
			ids, err := gdb.SearchRangeAppend(q.Graph(), gopt(l, false), lo, hi, nil, &st)
			must(err)
			return ids, gstats(st)
		},
		bounds: intLadder(graphTau),
		rung: func(q Query, l int, b float64) ([]Result, Stats) {
			o := gopt(l, false)
			o.VerifyTau = int(b)
			ids, dists, st, err := gdb.SearchDist(q.Graph(), o)
			must(err)
			rs := make([]Result, len(ids))
			for i, id := range ids {
				rs[i] = Result{ID: int64(id), Distance: float64(dists[i])}
			}
			return rs, gstats(st)
		},
	})
	return out
}

// TestAdapterMatchesBackend pins every plain adapter entry point —
// Search (plain, SkipVerify, Timings), SearchSeq, SearchRange over
// full, empty, inverted and random windows, and SearchTopK — to the
// raw backend entry points at the chain length the adapter resolves:
// exact ids or results and exact work counters, at l ∈ {0, 1, 2, m}.
func TestAdapterMatchesBackend(t *testing.T) {
	ctx := context.Background()
	for _, pb := range parityBackends(t) {
		t.Run(pb.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			empty := 0
			for _, l := range []int{0, 1, 2, pb.m} {
				lr := chain(l, pb.def)
				for qi, q := range pb.queries {
					where := func(what string) string {
						return fmt.Sprintf("l=%d query %d %s", l, qi, what)
					}
					check := func(what string, got []int64, gst Stats, want []int64, wst Stats) {
						t.Helper()
						if !sameIDs(got, want) {
							t.Fatalf("%s: ids %v, want %v", where(what), got, want)
						}
						if counters(gst) != counters(wst) {
							t.Fatalf("%s: counters %v, want %v", where(what), counters(gst), counters(wst))
						}
					}
					want, wst := pb.search(q, lr, false)
					if l == 0 && len(want) == 0 {
						empty++
					}
					for _, opt := range []Options{{ChainLength: l}, {ChainLength: l, Timings: true}} {
						got, gst, err := pb.ix.Search(ctx, q, opt)
						if err != nil {
							t.Fatal(err)
						}
						check(fmt.Sprintf("Search timings=%v", opt.Timings), got, gst, want, wst)
					}
					skipWant, skipSt := pb.search(q, lr, true)
					got, gst, err := pb.ix.Search(ctx, q, Options{ChainLength: l, SkipVerify: true})
					if err != nil {
						t.Fatal(err)
					}
					check("Search SkipVerify", got, gst, skipWant, skipSt)

					var seq []int64
					for id, err := range pb.ix.SearchSeq(ctx, q, Options{ChainLength: l}) {
						if err != nil {
							t.Fatal(err)
						}
						seq = append(seq, id)
					}
					if !sameIDs(seq, want) {
						t.Fatalf("%s: ids %v, want %v", where("SearchSeq"), seq, want)
					}

					a, b := rng.Intn(pb.n+1), rng.Intn(pb.n+1)
					for _, w := range [][2]int{{0, pb.n}, {a / 2, a / 2}, {pb.n, 0}, {min(a, b), max(a, b)}} {
						got, gst, err := SearchRange(ctx, pb.ix, q, Options{ChainLength: l}, w[0], w[1])
						if err != nil {
							t.Fatal(err)
						}
						var wids []int64
						var wwst Stats
						if w[0] < w[1] {
							wids, wwst = pb.window(q, lr, w[0], w[1])
						}
						check(fmt.Sprintf("SearchRange [%d,%d)", w[0], w[1]), got, gst, wids, wwst)
						if w == [2]int{0, pb.n} {
							check("SearchRange full vs Search", got, gst, want, wst)
						}
					}

					for _, k := range []int{1, 5} {
						var wantK []Result
						var kst Stats
						for i, bound := range pb.bounds {
							hits, st := pb.rung(q, lr, bound)
							kst.merge(st)
							kst.Rungs++
							if len(hits) >= k || i == len(pb.bounds)-1 {
								slices.SortFunc(hits, compareResult)
								wantK = hits[:min(k, len(hits))]
								break
							}
						}
						kst.Results = len(wantK)
						got, gst, err := pb.ix.SearchTopK(ctx, q, Options{ChainLength: l, TopK: k})
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got, wantK) {
							t.Fatalf("%s: results %v, want %v", where(fmt.Sprintf("SearchTopK k=%d", k)), got, wantK)
						}
						if counters(gst) != counters(kst) || gst.Rungs != kst.Rungs {
							t.Fatalf("%s: counters %v rungs %d, want %v rungs %d", where(fmt.Sprintf("SearchTopK k=%d", k)),
								counters(gst), gst.Rungs, counters(kst), kst.Rungs)
						}
					}
				}
			}
			if empty == 0 {
				t.Fatal("no query with an empty result; the table must cover one")
			}
		})
	}
}

func TestQueryKindMismatch(t *testing.T) {
	vecs := dataset.GIST(50, 11)
	ix, err := BuildHamming(vecs, 16, 24, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Search(context.Background(), StringQuery("nope"), Options{}); err == nil {
		t.Fatal("string query against hamming index did not error")
	}
	if _, _, err := ix.Search(context.Background(), Query{}, Options{}); err == nil {
		t.Fatal("empty query did not error")
	}
}

func TestTauOverride(t *testing.T) {
	vecs := dataset.GIST(300, 12)
	ix, err := BuildHamming(vecs, 16, 24, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	hdb, err := hamming.NewDB(vecs, 16)
	if err != nil {
		t.Fatal(err)
	}
	q := vecs[7]
	want, _, err := hdb.Search(q, 40, hamming.RingOptions(6))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ix.Search(context.Background(), VectorQuery(q), Options{Tau: Tau(40)})
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(got, toIDs(want)) {
		t.Fatalf("τ override ids %v, want %v", got, want)
	}

	if _, _, err := ix.Search(context.Background(), VectorQuery(q), Options{Tau: Tau(23.9)}); err == nil {
		t.Fatal("fractional hamming τ accepted")
	}
	if _, _, err := ix.Search(context.Background(), VectorQuery(q), Options{Tau: Tau(-1)}); err == nil {
		t.Fatal("negative hamming τ accepted")
	}
	if _, _, err := ix.Search(context.Background(), VectorQuery(q), Options{Tau: Tau(1e12)}); err == nil {
		t.Fatal("τ beyond the vector dimension accepted")
	}
	// An explicit τ=0 is an exact-match search, distinct from "unset".
	wantExact, _, err := hdb.Search(q, 0, hamming.RingOptions(6))
	if err != nil {
		t.Fatal(err)
	}
	gotExact, _, err := ix.Search(context.Background(), VectorQuery(q), Options{Tau: Tau(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(gotExact, toIDs(wantExact)) {
		t.Fatalf("τ=0 ids %v, want %v", gotExact, wantExact)
	}

	sets := dataset.DBLP(200, 13)
	cfg := setsim.Config{Measure: setsim.Jaccard, Tau: 0.8, M: 5}
	six, err := BuildSet(sets, cfg, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = six.Search(context.Background(), SetQuery(sets[0]), Options{Tau: Tau(0.5)})
	if err == nil || !strings.Contains(err.Error(), "built for") {
		t.Fatalf("set τ override err = %v, want built-for error", err)
	}
	if _, _, err := six.Search(context.Background(), SetQuery(sets[0]), Options{Tau: Tau(0.8)}); err != nil {
		t.Fatalf("matching τ rejected: %v", err)
	}
}

func TestSearchBatchAlignsWithSingle(t *testing.T) {
	for _, tc := range buildCases(t, 3) {
		t.Run(tc.name, func(t *testing.T) {
			batch := SearchBatch(context.Background(), tc.sharded, tc.queries, Options{}, 4)
			if len(batch) != len(tc.queries) {
				t.Fatalf("batch returned %d results for %d queries", len(batch), len(tc.queries))
			}
			for i, r := range batch {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				want, _, err := tc.unsharded.Search(context.Background(), tc.queries[i], Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !sameIDs(r.IDs, want) {
					t.Fatalf("batch result %d ids %v, want %v", i, r.IDs, want)
				}
			}
		})
	}
}

func TestTimings(t *testing.T) {
	vecs := dataset.GIST(400, 14)
	ix, err := BuildHamming(vecs, 16, 24, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := ix.Search(context.Background(), VectorQuery(vecs[3]), Options{Timings: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalNS <= 0 || st.WallNS <= 0 {
		t.Fatalf("timings not recorded: total=%d wall=%d", st.TotalNS, st.WallNS)
	}
	if st.FilterNS < 0 || st.VerifyNS < 0 || st.FilterNS+st.VerifyNS > st.TotalNS {
		t.Fatalf("inconsistent split: filter=%d verify=%d total=%d", st.FilterNS, st.VerifyNS, st.TotalNS)
	}
}

func TestBuildersClampShards(t *testing.T) {
	vecs := dataset.GIST(5, 15)
	ix, err := BuildHamming(vecs, 4, 8, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	sh, ok := ix.(*Sharded)
	if !ok {
		t.Fatalf("expected *Sharded, got %T", ix)
	}
	if sh.Shards() != 5 || sh.Len() != 5 {
		t.Fatalf("shards=%d len=%d, want 5/5", sh.Shards(), sh.Len())
	}
	if _, err := BuildHamming(vecs, 4, 8, 0, 0); err != nil {
		t.Fatalf("shards=0 rejected: %v", err)
	}
	if _, err := BuildHamming(nil, 4, 8, 2, 0); err == nil {
		t.Fatal("empty database accepted")
	}
	if _, err := BuildHamming(vecs, 4, 10000, 2, 0); err == nil {
		t.Fatal("default τ beyond the vector dimension accepted")
	}
}

func TestParseProblem(t *testing.T) {
	for _, s := range []string{"hamming", "set", "string", "graph"} {
		p, err := ParseProblem(s)
		if err != nil || string(p) != s {
			t.Fatalf("ParseProblem(%q) = %v, %v", s, p, err)
		}
	}
	if _, err := ParseProblem("vector"); err == nil {
		t.Fatal("unknown problem accepted")
	}
}
