package repro

// Benchmarks regenerating every table and figure of the paper's
// evaluation (§8), one benchmark function per figure, plus ablation
// benchmarks for the implementation's design choices. Run with:
//
//	go test -bench=. -benchmem
//
// Each sub-benchmark measures one parameter setting and reports the
// average candidate count per query alongside the timing;
// cmd/experiments produces the full figure sweeps with the same
// harness.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hamming"
	"repro/internal/setsim"
	"repro/internal/strdist"
	"repro/internal/tokenset"
)

// Benchmark workload sizes: a quarter of the laptop-scale defaults so
// that the full `go test -bench=.` run stays in minutes.
const (
	benchSeed    = 42
	benchVecN    = 5000
	benchEnronN  = 1500
	benchDBLPN   = 5000
	benchIMDBN   = 5000
	benchPubMedN = 1500
	benchAIDSN   = 300
	benchProtN   = 150
	benchQueries = 10
)

// --- Figure 2: analytical filtering power -----------------------------------

func BenchmarkFig2Analysis(b *testing.B) {
	settings := []struct {
		tau float64
		m   int
	}{{96, 16}, {64, 16}, {48, 8}, {32, 8}}
	for _, s := range settings {
		b.Run(fmt.Sprintf("tau=%g,m=%d", s.tau, s.m), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				mod := analysis.NewUniformBoxModel(256, s.m, s.tau)
				for l := 1; l <= 7; l++ {
					last = mod.FalsePositiveRatio(l)
				}
			}
			b.ReportMetric(last, "fp-ratio-l7")
		})
	}
}

// --- Hamming distance search (Figures 5 and 9) ------------------------------

type hammingBenchEnv struct {
	db   *hamming.DB
	vecs []bitvec.Vector
	qs   []int
}

func newHammingEnv(b *testing.B, d int) hammingBenchEnv {
	b.Helper()
	var vecs []bitvec.Vector
	if d == 256 {
		vecs = dataset.GIST(benchVecN, benchSeed)
	} else {
		vecs = dataset.SIFT(benchVecN, benchSeed)
	}
	db, err := hamming.NewDB(vecs, d/16)
	if err != nil {
		b.Fatal(err)
	}
	return hammingBenchEnv{db, vecs, dataset.SampleQueries(benchVecN, benchQueries, benchSeed)}
}

func (e hammingBenchEnv) run(b *testing.B, tau int, opt hamming.Options) {
	b.Helper()
	var cand, res int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := e.vecs[e.qs[i%len(e.qs)]]
		r, st, err := e.db.Search(q, tau, opt)
		if err != nil {
			b.Fatal(err)
		}
		cand += st.Candidates
		res += len(r)
	}
	b.ReportMetric(float64(cand)/float64(b.N), "cand/query")
	b.ReportMetric(float64(res)/float64(b.N), "results/query")
}

func BenchmarkFig5ChainLengthHamming(b *testing.B) {
	gist := newHammingEnv(b, 256)
	for _, l := range []int{1, 2, 4, 6, 8} {
		b.Run(fmt.Sprintf("GIST/tau=64/l=%d", l), func(b *testing.B) {
			gist.run(b, 64, hamming.RingOptions(l))
		})
	}
	sift := newHammingEnv(b, 512)
	for _, l := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("SIFT/tau=96/l=%d", l), func(b *testing.B) {
			sift.run(b, 96, hamming.RingOptions(l))
		})
	}
}

func BenchmarkFig9HammingComparison(b *testing.B) {
	gist := newHammingEnv(b, 256)
	for _, tau := range []int{16, 32, 48, 64} {
		b.Run(fmt.Sprintf("GIST/GPH/tau=%d", tau), func(b *testing.B) {
			gist.run(b, tau, hamming.GPHOptions())
		})
		b.Run(fmt.Sprintf("GIST/Ring/tau=%d", tau), func(b *testing.B) {
			gist.run(b, tau, hamming.RingOptions(6))
		})
	}
	sift := newHammingEnv(b, 512)
	for _, tau := range []int{64, 128} {
		b.Run(fmt.Sprintf("SIFT/GPH/tau=%d", tau), func(b *testing.B) {
			sift.run(b, tau, hamming.GPHOptions())
		})
		b.Run(fmt.Sprintf("SIFT/Ring/tau=%d", tau), func(b *testing.B) {
			sift.run(b, tau, hamming.RingOptions(6))
		})
	}
}

// --- Set similarity search (Figures 6 and 10) -------------------------------

func setData(name string) []tokenset.Set {
	if name == "Enron" {
		return dataset.Enron(benchEnronN, benchSeed)
	}
	return dataset.DBLP(benchDBLPN, benchSeed)
}

func benchSetSearch(b *testing.B, sets []tokenset.Set, search func(q tokenset.Set) (setsim.Stats, error)) {
	b.Helper()
	qs := dataset.SampleQueries(len(sets), benchQueries, benchSeed)
	var cand int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := search(sets[qs[i%len(qs)]])
		if err != nil {
			b.Fatal(err)
		}
		cand += st.Candidates
	}
	b.ReportMetric(float64(cand)/float64(b.N), "cand/query")
}

func BenchmarkFig6ChainLengthSetSim(b *testing.B) {
	for _, name := range []string{"Enron", "DBLP"} {
		sets := setData(name)
		for _, tau := range []float64{0.7, 0.8} {
			pk, err := setsim.NewPKWiseDB(sets, setsim.Config{Measure: setsim.Jaccard, Tau: tau, M: 5})
			if err != nil {
				b.Fatal(err)
			}
			for l := 1; l <= 3; l++ {
				b.Run(fmt.Sprintf("%s/tau=%g/l=%d", name, tau, l), func(b *testing.B) {
					benchSetSearch(b, sets, func(q tokenset.Set) (setsim.Stats, error) {
						_, st, err := pk.Search(q, l)
						return st, err
					})
				})
			}
		}
	}
}

func BenchmarkFig10SetSimComparison(b *testing.B) {
	for _, name := range []string{"Enron", "DBLP"} {
		sets := setData(name)
		for _, tau := range []float64{0.7, 0.8, 0.9} {
			cfg := setsim.Config{Measure: setsim.Jaccard, Tau: tau, M: 5}
			pk, err := setsim.NewPKWiseDB(sets, cfg)
			if err != nil {
				b.Fatal(err)
			}
			ap, err := setsim.NewAllPairsDB(sets, cfg)
			if err != nil {
				b.Fatal(err)
			}
			pa, err := setsim.NewPartAllocDB(sets, cfg)
			if err != nil {
				b.Fatal(err)
			}
			algos := []struct {
				algo   string
				search func(q tokenset.Set) (setsim.Stats, error)
			}{
				{"AdaptSearch", func(q tokenset.Set) (setsim.Stats, error) {
					_, st, err := ap.Search(q)
					return st, err
				}},
				{"PartAlloc", func(q tokenset.Set) (setsim.Stats, error) {
					_, st, err := pa.Search(q)
					return st, err
				}},
				{"pkwise", func(q tokenset.Set) (setsim.Stats, error) {
					_, st, err := pk.Search(q, 1)
					return st, err
				}},
				{"Ring", func(q tokenset.Set) (setsim.Stats, error) {
					_, st, err := pk.Search(q, 2)
					return st, err
				}},
			}
			for _, a := range algos {
				b.Run(fmt.Sprintf("%s/%s/tau=%g", name, a.algo, tau), func(b *testing.B) {
					benchSetSearch(b, sets, a.search)
				})
			}
		}
	}
}

// --- String edit distance search (Figures 7 and 11) -------------------------

func strEnv(b *testing.B, name string, tau int) (*strdist.DB, []string, []int) {
	b.Helper()
	var strs []string
	kappa := 2
	if name == "IMDB" {
		strs = dataset.IMDB(benchIMDBN, benchSeed)
		if tau <= 1 {
			kappa = 3
		}
	} else {
		strs = dataset.PubMed(benchPubMedN, benchSeed)
		switch {
		case tau <= 4:
			kappa = 8
		case tau <= 8:
			kappa = 6
		default:
			kappa = 4
		}
	}
	dict, err := strdist.BuildGramDict(strs, kappa)
	if err != nil {
		b.Fatal(err)
	}
	db, err := strdist.NewDB(strs, dict, tau)
	if err != nil {
		b.Fatal(err)
	}
	return db, strs, dataset.SampleQueries(len(strs), benchQueries, benchSeed)
}

func benchStrSearch(b *testing.B, db *strdist.DB, strs []string, qs []int, opt strdist.Options) {
	b.Helper()
	var cand int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := db.Search(strs[qs[i%len(qs)]], opt)
		if err != nil {
			b.Fatal(err)
		}
		cand += st.Cand2 + st.Fallback
	}
	b.ReportMetric(float64(cand)/float64(b.N), "cand/query")
}

func BenchmarkFig7ChainLengthEditDist(b *testing.B) {
	for _, w := range []struct {
		name string
		tau  int
	}{{"IMDB", 2}, {"IMDB", 4}, {"PubMed", 6}, {"PubMed", 12}} {
		db, strs, qs := strEnv(b, w.name, w.tau)
		maxL := 4
		if w.tau+1 < maxL {
			maxL = w.tau + 1
		}
		for l := 1; l <= maxL; l++ {
			b.Run(fmt.Sprintf("%s/tau=%d/l=%d", w.name, w.tau, l), func(b *testing.B) {
				benchStrSearch(b, db, strs, qs, strdist.RingOptions(l))
			})
		}
	}
}

func BenchmarkFig11EditDistComparison(b *testing.B) {
	for _, w := range []struct {
		name string
		taus []int
	}{{"IMDB", []int{2, 4}}, {"PubMed", []int{6, 12}}} {
		for _, tau := range w.taus {
			db, strs, qs := strEnv(b, w.name, tau)
			ringL := 3
			if tau+1 < ringL {
				ringL = tau + 1
			}
			b.Run(fmt.Sprintf("%s/Pivotal/tau=%d", w.name, tau), func(b *testing.B) {
				benchStrSearch(b, db, strs, qs, strdist.PivotalOptions())
			})
			b.Run(fmt.Sprintf("%s/Ring/tau=%d", w.name, tau), func(b *testing.B) {
				benchStrSearch(b, db, strs, qs, strdist.RingOptions(ringL))
			})
		}
	}
}

// --- Graph edit distance search (Figures 8 and 12) --------------------------

func graphEnv(b *testing.B, name string, tau int) (*graph.DB, []*graph.Graph, []int) {
	b.Helper()
	var gs []*graph.Graph
	if name == "AIDS" {
		gs = dataset.AIDS(benchAIDSN, benchSeed)
	} else {
		gs = dataset.Protein(benchProtN, benchSeed)
	}
	db, err := graph.NewDB(gs, tau)
	if err != nil {
		b.Fatal(err)
	}
	return db, gs, dataset.SampleQueries(len(gs), 5, benchSeed)
}

func benchGraphSearch(b *testing.B, db *graph.DB, gs []*graph.Graph, qs []int, opt graph.Options) {
	b.Helper()
	var cand int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := db.Search(gs[qs[i%len(qs)]], opt)
		if err != nil {
			b.Fatal(err)
		}
		cand += st.Candidates
	}
	b.ReportMetric(float64(cand)/float64(b.N), "cand/query")
}

func BenchmarkFig8ChainLengthGED(b *testing.B) {
	for _, name := range []string{"AIDS", "Protein"} {
		for _, tau := range []int{4} {
			db, gs, qs := graphEnv(b, name, tau)
			for _, l := range []int{1, 3, 5} {
				b.Run(fmt.Sprintf("%s/tau=%d/l=%d", name, tau, l), func(b *testing.B) {
					benchGraphSearch(b, db, gs, qs, graph.RingOptions(l))
				})
			}
		}
	}
}

func BenchmarkFig12GEDComparison(b *testing.B) {
	for _, name := range []string{"AIDS", "Protein"} {
		for _, tau := range []int{2, 4} {
			db, gs, qs := graphEnv(b, name, tau)
			l := tau - 1
			if l < 1 {
				l = 1
			}
			b.Run(fmt.Sprintf("%s/Pars/tau=%d", name, tau), func(b *testing.B) {
				benchGraphSearch(b, db, gs, qs, graph.ParsOptions())
			})
			b.Run(fmt.Sprintf("%s/Ring/tau=%d", name, tau), func(b *testing.B) {
				benchGraphSearch(b, db, gs, qs, graph.RingOptions(l))
			})
		}
	}
}

// --- Ablation benchmarks -----------------------------------------------------

// BenchmarkAblationStrongVsBasic compares the strong form (prefix-viable
// chains, Theorem 3) against the basic form (chain sums only, Theorem
// 2) at equal chain length on the raw filter.
func BenchmarkAblationStrongVsBasic(b *testing.B) {
	boxes := makeAblationBoxes()
	f := core.NewUniform(64, 16, 6, core.LE)
	b.Run("strong", func(b *testing.B) {
		kept := 0
		for i := 0; i < b.N; i++ {
			if f.HasPrefixViableChain(boxes[i%len(boxes)]) {
				kept++
			}
		}
		b.ReportMetric(float64(kept)/float64(b.N), "pass-rate")
	})
	b.Run("basic", func(b *testing.B) {
		kept := 0
		for i := 0; i < b.N; i++ {
			if f.HasViableChain(boxes[i%len(boxes)]) {
				kept++
			}
		}
		b.ReportMetric(float64(kept)/float64(b.N), "pass-rate")
	})
	b.Run("pigeonhole", func(b *testing.B) {
		f1 := core.NewUniform(64, 16, 1, core.LE)
		kept := 0
		for i := 0; i < b.N; i++ {
			if f1.HasPrefixViableChain(boxes[i%len(boxes)]) {
				kept++
			}
		}
		b.ReportMetric(float64(kept)/float64(b.N), "pass-rate")
	})
}

// BenchmarkAblationSkip measures the Corollary 2 start-skipping
// optimization of HasPrefixViableChain.
func BenchmarkAblationSkip(b *testing.B) {
	boxes := makeAblationBoxes()
	f := core.NewUniform(64, 16, 6, core.LE)
	b.Run("with-skip", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.HasPrefixViableChain(boxes[i%len(boxes)])
		}
	})
	b.Run("no-skip", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.HasPrefixViableChainNoSkip(boxes[i%len(boxes)])
		}
	})
}

func makeAblationBoxes() []core.Boxes {
	// Deterministic pseudo-random box layouts around the threshold.
	out := make([]core.Boxes, 512)
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := range out {
		bx := make(core.Boxes, 16)
		for j := range bx {
			bx[j] = float64(next() % 9)
		}
		out[i] = bx
	}
	return out
}

// BenchmarkAblationIntReduction compares integer reduction (Theorem 7)
// against plain variable allocation (Theorem 6) for Hamming search.
func BenchmarkAblationIntReduction(b *testing.B) {
	env := newHammingEnv(b, 256)
	b.Run("integer-reduction", func(b *testing.B) {
		env.run(b, 32, hamming.Options{ChainLength: 6, Alloc: hamming.AllocCostModel})
	})
	b.Run("no-reduction", func(b *testing.B) {
		env.run(b, 32, hamming.Options{ChainLength: 6, Alloc: hamming.AllocCostModel, NoIntegerReduction: true})
	})
}

// BenchmarkAblationAllocation compares the GPH cost-model threshold
// allocation against uniform spreading.
func BenchmarkAblationAllocation(b *testing.B) {
	env := newHammingEnv(b, 256)
	b.Run("cost-model", func(b *testing.B) {
		env.run(b, 32, hamming.Options{ChainLength: 6, Alloc: hamming.AllocCostModel})
	})
	b.Run("uniform", func(b *testing.B) {
		env.run(b, 32, hamming.Options{ChainLength: 6, Alloc: hamming.AllocUniform})
	})
}

// BenchmarkAblationContentFilter compares the Ring bit-vector box
// bounds against the Pivotal exact alignment boxes (§6.3 remark: the
// content bound reduces a box check from O(κ²+κτ) to O(κ+τ)).
func BenchmarkAblationContentFilter(b *testing.B) {
	db, strs, qs := strEnv(b, "PubMed", 6)
	b.Run("bitvector-bounds", func(b *testing.B) {
		benchStrSearch(b, db, strs, qs, strdist.RingOptions(3))
	})
	b.Run("exact-alignment", func(b *testing.B) {
		benchStrSearch(b, db, strs, qs, strdist.PivotalOptions())
	})
}

// BenchmarkAblationGraphPrefilter measures the optional global
// label-multiset prefilter for GED search.
func BenchmarkAblationGraphPrefilter(b *testing.B) {
	db, gs, qs := graphEnv(b, "AIDS", 3)
	b.Run("with-prefilter", func(b *testing.B) {
		benchGraphSearch(b, db, gs, qs, graph.Options{Ring: true, ChainLength: 2, LabelPrefilter: true})
	})
	b.Run("no-prefilter", func(b *testing.B) {
		benchGraphSearch(b, db, gs, qs, graph.Options{Ring: true, ChainLength: 2})
	})
}

// --- Joins -------------------------------------------------------------------

// Join benchmark workload sizes: a join runs one search per row, so
// the corpora are smaller than the search benchmarks'.
const (
	benchJoinVecN   = 1000
	benchJoinSetN   = 1000
	benchJoinStrN   = 1000
	benchJoinGraphN = 80
)

// BenchmarkJoin measures the engine's parallel all-pairs self-join per
// backend at the paper's recommended chain length, seeding the perf
// trajectory of the v3 join API. Each iteration joins the whole
// corpus; pairs/op reports the (constant) result size.
func BenchmarkJoin(b *testing.B) {
	ctx := context.Background()
	run := func(b *testing.B, ix engine.Index) {
		b.Helper()
		var pairs int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ps, _, err := ix.Join(ctx, engine.JoinOptions{})
			if err != nil {
				b.Fatal(err)
			}
			pairs = len(ps)
		}
		b.ReportMetric(float64(pairs), "pairs/op")
	}
	b.Run("hamming", func(b *testing.B) {
		vecs := dataset.GIST(benchJoinVecN, benchSeed)
		ix, err := engine.BuildHamming(vecs, vecs[0].Dim()/16, 24, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		run(b, ix)
	})
	b.Run("set", func(b *testing.B) {
		sets := dataset.DBLP(benchJoinSetN, benchSeed)
		ix, err := engine.BuildSet(sets, setsim.Config{Measure: setsim.Jaccard, Tau: 0.8, M: 5}, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		run(b, ix)
	})
	b.Run("string", func(b *testing.B) {
		strs := dataset.IMDB(benchJoinStrN, benchSeed)
		ix, err := engine.BuildString(strs, 2, 2, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		run(b, ix)
	})
	b.Run("graph", func(b *testing.B) {
		graphs := dataset.AIDS(benchJoinGraphN, benchSeed)
		ix, err := engine.BuildGraph(graphs, 3, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		run(b, ix)
	})
}

// BenchmarkJoinSharded contrasts the sharded join against the
// unsharded BenchmarkJoin/set at equal data: pair output is identical,
// the shard-contiguous tile fan-out changes the cost.
func BenchmarkJoinSharded(b *testing.B) {
	ctx := context.Background()
	sets := dataset.DBLP(benchJoinSetN, benchSeed)
	for _, shards := range []int{1, 4} {
		ix, err := engine.BuildSet(sets, setsim.Config{Measure: setsim.Jaccard, Tau: 0.8, M: 5}, shards, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("set/shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := ix.Join(ctx, engine.JoinOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerifiers measures the raw verification kernels that
// dominate candidate cost.
func BenchmarkVerifiers(b *testing.B) {
	vecs := dataset.GIST(2, benchSeed)
	b.Run("hamming-popcount", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bitvec.HammingAbandon(vecs[0], vecs[1], 64)
		}
	})
	sets := dataset.Enron(2, benchSeed)
	b.Run("overlap-merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tokenset.OverlapAtLeast(sets[0], sets[1], 50)
		}
	})
	strs := dataset.PubMed(2, benchSeed)
	b.Run("edit-distance-banded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			strdist.EditDistanceWithin(strs[0], strs[1], 12)
		}
	})
	gs := dataset.AIDS(2, benchSeed)
	b.Run("ged-branch-and-bound", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.GEDWithin(gs[0], gs[1], 4)
		}
	})
}
