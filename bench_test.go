package repro

// Benchmarks for the implementation's design choices: integer
// reduction, threshold allocation and the string content filter, the
// engine's self-join, and the raw verification kernels. Run with:
//
//	go test -run '^$' -bench . -benchmem
//
// The paper's figures are regenerated by cmd/experiments
// (internal/bench). The chain-filter ablations (strong versus basic
// form, the Corollary 2 skip) are internal/core's own benchmarks.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hamming"
	"repro/internal/setsim"
	"repro/internal/strdist"
	"repro/internal/tokenset"
)

const (
	benchSeed    = 42
	benchVecN    = 5000
	benchPubMedN = 1500
	benchQueries = 10
)

// --- Shared workloads --------------------------------------------------------

// hammingBenchEnv is GIST (d = 256) indexed at m = d/16 with sampled
// queries.
type hammingBenchEnv struct {
	db   *hamming.DB
	vecs []bitvec.Vector
	qs   []int
}

func newHammingEnv(b *testing.B) hammingBenchEnv {
	b.Helper()
	vecs := dataset.GIST(benchVecN, benchSeed)
	db, err := hamming.NewDB(vecs, vecs[0].Dim()/16)
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

// pubMedEnv indexes PubMed at τ with the paper's gram length κ = 6
// (τ 6–8) and samples queries.
func pubMedEnv(b *testing.B, tau int) (*strdist.DB, []string, []int) {
	b.Helper()
	strs := dataset.PubMed(benchPubMedN, benchSeed)
	dict, err := strdist.BuildGramDict(strs, 6)
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

// --- Ablation benchmarks -----------------------------------------------------

// BenchmarkAblationIntReduction compares integer reduction (Theorem 7)
// against plain variable allocation (Theorem 6) for Hamming search.
func BenchmarkAblationIntReduction(b *testing.B) {
	env := newHammingEnv(b)
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
	env := newHammingEnv(b)
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
	db, strs, qs := pubMedEnv(b, 6)
	b.Run("bitvector-bounds", func(b *testing.B) {
		benchStrSearch(b, db, strs, qs, strdist.RingOptions(3))
	})
	b.Run("exact-alignment", func(b *testing.B) {
		benchStrSearch(b, db, strs, qs, strdist.PivotalOptions())
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
// trajectory of the join API. Each iteration joins the whole
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
