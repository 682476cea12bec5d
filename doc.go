// Package repro is a from-scratch Go reproduction of "Pigeonring: A
// Principle for Faster Thresholded Similarity Search" (Qin and Xiao,
// VLDB 2018).
//
// The library lives under internal/: core implements the pigeonring
// principle and the ⟨F, B, D⟩ filtering framework; hamming, setsim,
// strdist and graph implement the four case-study search systems with
// their pigeonhole baselines (GPH, pkwise/AdaptSearch/PartAlloc,
// Pivotal, Pars); analysis implements the §3.1 filtering-power model;
// dataset generates the synthetic stand-ins for the paper's eight
// datasets; bench regenerates every evaluation figure.
//
// The hamming kernel is laid out for the memory system: NewDB copies
// the vectors into one flat word arena (the input slice is not
// retained), each part's table is direct-addressed whenever that is no
// larger than the hash table it replaces, the first box of every chain
// is taken from the ball value the candidate was found under instead
// of being recomputed, and full, distance-reporting and range-restricted
// search share one loop. README.md "Hamming kernel notes" has the rules.
//
// The setsim kernel follows suit: NewPKWiseDB retains its input sets
// (it does not copy them), postings are one ascending-id CSR arena
// addressed directly by token whenever that table is no larger than the
// arena, each set is an 8-byte {prefix length, last prefix token}
// record, the pooled count rows carry the set's size beside the class
// overlaps it gates, the chain check is integer, verification first
// tries the box-sum bound the filter already holds, and every entry
// point shares one loop. Its snapshot stores the sets and rebuilds the
// index on open. README.md "Set kernel notes" has the rules.
//
// Above the four problem packages sits engine, the unified serving
// layer: one Index interface with typed queries over every backend —
// Search(ctx, q, opt), context-cancellable with Options.Limit early
// termination — a sharded composite that fans queries out across a
// worker pool and abandons shards on cancellation or a satisfied
// limit, and a batch API parallelizing across queries. Every Index
// also answers Join(ctx, opt) — the all-pairs self-join behind dedup
// and entity resolution, answered by a 2-D upper-triangle tile
// decomposition over the same pool with sharded output pair-identical
// to unsharded — and SearchTopK(ctx, q, opt), which with Options.TopK
// answers "the k nearest" instead of "everything within τ" — Hamming
// by climbing an expanding τ ladder until k results verify, string,
// graph and set in one pass at the built τ — returning ranked (id,
// distance) Results, byte-identical sharded versus plain. server
// exposes that layer over HTTP/JSON (request-scoped contexts,
// limit/timeout_ms, "k" top-k mode, cancelled and limited counters,
// /v1/join with join and pair totals); cmd/pigeonringd is the daemon
// serving it.
//
// See README.md for a tour. cmd/experiments regenerates each figure of
// the paper's evaluation; bench_test.go holds the design-choice, join
// and verifier benchmarks.
package repro
