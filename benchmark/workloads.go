package main

import "repro/internal/engine"

// spec is one benchmark workload: its problem instances and how ops
// are drawn from them. Every workload runs the same three timed phases
// (threshold search, top-k, self-join) under the same load model — see
// README.md for the rationale of each.
type spec struct {
	name  string
	why   string
	parts []partSpec
	// http routes every op through an in-process pigeonringd behind a
	// loopback listener; otherwise ops call the engine index directly.
	http bool
	// mix is the search/top-k op schedule: op i addresses part
	// mix[i % len(mix)].
	mix []int
	// joinParts are the parts one join op joins, in order.
	joinParts []int
	// openLoopRate is the fixed arrival rate (req/s) of the traced
	// run's open-loop phase, sized to roughly a third of what the
	// serving stack sustains on this workload at seed state.
	openLoopRate int
}

const topK = 10

// workloads returns the six workloads at full scale. The names are the
// identifiers BENCHMARK.json declares and later issues cite.
func workloads() []spec {
	return []spec{
		{
			name: "hamming-gist-100k",
			why:  "filter-bound extreme: enumeration, posting probes and chain checks dominate, verification is a 4-word popcount",
			parts: []partSpec{{
				problem: engine.Hamming, dataset: "gist", n: 100_000, queries: 2000, joinN: 8000,
				m: 16, tau: 32, joinTau: 24, shards: 1, joinShards: 1,
				searchTaus: []float64{16, 32, 48},
				// Under a cap of 64 alone the latencies fall into two modes
				// of about equal weight — queries with ten neighbours within
				// 32 stop there, the rest pay the τ = 64 rung, five times
				// the cost — and the median flips between them from seed
				// to seed. Capping every other op at 32 puts three quarters
				// of the ops in the fast mode: p50 sits inside it, p99 in
				// the τ = 64 rung's tail.
				topkCaps:      []float64{32, 64},
				oracleQueries: 64, joinOracleN: 1000,
			}},
			mix: []int{0}, joinParts: []int{0}, openLoopRate: 1000,
		},
		{
			name: "set-dblp-100k",
			why:  "probe-bound: ~10k posting entries and ~1.5k cheap merge verifications per query; a hamming-only change must not move it",
			parts: []partSpec{{
				problem: engine.Set, dataset: "dblp", n: 100_000, queries: 2000, joinN: 20_000,
				m: 5, tau: 0.8, joinTau: 0.8, shards: 1, joinShards: 1,
				oracleQueries: 64, joinOracleN: 1000,
			}},
			mix: []int{0}, joinParts: []int{0}, openLoopRate: 400,
		},
		{
			name: "string-imdb-100k",
			why:  "probes plus a DP edit-distance verify per candidate; the one backend where ring already beats hole",
			parts: []partSpec{{
				problem: engine.String, dataset: "imdb", n: 100_000, queries: 2000, joinN: 16_000,
				kappa: 2, tau: 2, joinTau: 2, shards: 1, joinShards: 1,
				oracleQueries: 64, joinOracleN: 1000,
			}},
			mix: []int{0}, joinParts: []int{0}, openLoopRate: 400,
		},
		{
			name: "graph-aids-2k",
			why:  "verification-bound extreme: every surviving candidate costs an exact GED, so candidate reduction shows here and nowhere else",
			parts: []partSpec{{
				problem: engine.Graph, dataset: "aids", n: 2000, queries: 200, joinN: 1200,
				tau: 3, joinTau: 3, shards: 1, joinShards: 1,
				oracleQueries: 32, joinOracleN: 250,
			}},
			mix: []int{0}, joinParts: []int{0}, openLoopRate: 150,
		},
		{
			name: "hamming-sift-120k-sharded",
			why:  "same hamming kernel behind engine.Sharded and internal/parallel: fan-out, merge and scratch pooling do work the plain workloads never run",
			parts: []partSpec{{
				problem: engine.Hamming, dataset: "sift", n: 120_000, queries: 2000, joinN: 6000,
				m: 32, tau: 64, joinTau: 48, shards: engine.AutoShards, joinShards: 4,
				topkCaps:      []float64{64},
				oracleQueries: 64, joinOracleN: 1000,
			}},
			mix: []int{0}, joinParts: []int{0}, openLoopRate: 200,
		},
		{
			name: "http-mixed-20k",
			why:  "engine work is a fraction of the round trip, so HTTP, JSON, request ids and telemetry are most of the time; a kernel change barely shows",
			http: true,
			// The server-default build parameters of POST /v1/load.
			parts: []partSpec{
				{problem: engine.Hamming, dataset: "gist", n: 20_000, queries: 2000, joinN: 20_000,
					m: 16, tau: 24, joinTau: 24, shards: 1, joinShards: 1, topkCaps: []float64{64},
					oracleQueries: 16, joinOracleN: 500},
				{problem: engine.Set, dataset: "dblp", n: 20_000, queries: 2000, joinN: 20_000,
					m: 5, tau: 0.8, joinTau: 0.8, shards: 1, joinShards: 1,
					oracleQueries: 16, joinOracleN: 500},
				{problem: engine.String, dataset: "imdb", n: 20_000, queries: 2000, joinN: 20_000,
					kappa: 2, tau: 2, joinTau: 2, shards: 1, joinShards: 1,
					oracleQueries: 16, joinOracleN: 500},
				{problem: engine.Graph, dataset: "aids", n: 300, queries: 200, joinN: 300,
					tau: 3, joinTau: 3, shards: 1, joinShards: 1,
					oracleQueries: 16, joinOracleN: 150},
			},
			// 5:5:5:1 rather than a plain round-robin: with three equal
			// large shares the median falls inside the middle problem's
			// latency mode instead of on the boundary between two, and
			// the 1-in-16 graph share owns the tail.
			mix:       []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 3},
			joinParts: []int{1, 3}, openLoopRate: 1200,
		},
	}
}

// shrunk caps every corpus of s at n objects (graphs at n/5) so the
// package test can run all six workloads in seconds. AutoShards would
// resolve to one shard at that size, so it becomes an explicit 4.
func shrunk(s spec, n int) spec {
	parts := make([]partSpec, len(s.parts))
	for i, p := range s.parts {
		limit := n
		if p.problem == engine.Graph {
			limit = n / 5
		}
		p.n = min(p.n, limit)
		p.joinN = min(p.joinN, limit/2)
		p.queries = min(p.queries, 48)
		p.oracleQueries = min(p.oracleQueries, 8)
		p.joinOracleN = min(p.joinOracleN, 60)
		if p.shards == engine.AutoShards {
			p.shards = 4
		}
		parts[i] = p
	}
	s.parts = parts
	s.openLoopRate = min(s.openLoopRate, 200)
	return s
}
