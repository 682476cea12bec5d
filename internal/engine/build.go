package engine

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/graph"
	"repro/internal/hamming"
	"repro/internal/parallel"
	"repro/internal/setsim"
	"repro/internal/strdist"
	"repro/internal/tokenset"
)

// The Build* constructors produce a ready-to-serve Index from raw
// data: one plain adapter for shards ≤ 1, otherwise a Sharded over
// contiguous slices, with the per-shard indexes built in parallel.
// Global ids always equal positions in the input slice, sharded or
// not. Passing AutoShards selects the shard count from the corpus
// size via AutoShardCount.

// AutoShards, passed as the shard count of any Build* constructor,
// selects the shard count automatically from the corpus size via
// AutoShardCount.
const AutoShards = -1

// Auto-sharding constants, from the measured fan-out crossover (see
// AutoShardCount): below autoShardMin objects a single shard always
// wins; above it, one shard per autoShardUnit objects, never more
// than autoShardMax.
const (
	autoShardMin  = 50_000
	autoShardUnit = 25_000
	autoShardMax  = 8
)

// AutoShardCount returns the shard count AutoShards resolves to for an
// n-object corpus: 1 below 50,000 objects, then one shard per 25,000
// objects, capped at 8. The function is deterministic — a pure
// function of n, never of the host — so an index built with AutoShards
// has the same layout (and byte-identical results) everywhere.
//
// The constants come from measuring the shard fan-out on the
// trajectory workloads: each extra shard costs ~10–20µs of dispatch
// and merge per query, which dominates until a shard holds tens of
// thousands of objects (at 2,000 objects a 4-shard search is 2–4×
// slower than unsharded on every backend). Sharding pays off for
// latency only once per-shard work amortizes that fixed cost —
// ~25,000 objects per shard — and additionally requires free cores;
// the cap keeps the fan-out below the worker-pool sizes deployments
// actually run. Callers who measure a different crossover on their
// hardware override by passing an explicit shard count.
func AutoShardCount(n int) int {
	if n < autoShardMin {
		return 1
	}
	shards := n / autoShardUnit
	if shards > autoShardMax {
		shards = autoShardMax
	}
	return shards
}

// chunks splits n items into the given number of nearly equal
// contiguous ranges, clamping the shard count into [1, n]. n = 0
// yields no ranges (rather than dividing by the clamped-to-zero shard
// count).
func chunks(n, shards int) [][2]int {
	if n == 0 {
		return nil
	}
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	out := make([][2]int, shards)
	base, rem := n/shards, n%shards
	pos := 0
	for i := range out {
		w := base
		if i < rem {
			w++
		}
		out[i] = [2]int{pos, pos + w}
		pos += w
	}
	return out
}

// buildSharded builds one shard index per chunk in parallel and
// composes them. workers bounds both the build and the per-query
// fan-out. shards == AutoShards resolves via AutoShardCount.
func buildSharded(n, shards, workers int, build func(lo, hi int) (*adapter, error)) (Index, error) {
	if n == 0 {
		return nil, fmt.Errorf("engine: empty database")
	}
	if shards == AutoShards {
		shards = AutoShardCount(n)
	}
	ranges := chunks(n, shards)
	if len(ranges) == 1 {
		return plain(build(0, n))
	}
	built := make([]*adapter, len(ranges))
	err := parallel.ForEachErr(len(ranges), workers, func(i int) error {
		ix, err := build(ranges[i][0], ranges[i][1])
		if err != nil {
			return fmt.Errorf("engine: building shard %d: %w", i, err)
		}
		built[i] = ix
		return nil
	})
	if err != nil {
		return nil, err
	}
	return newSharded(built, workers)
}

// BuildHamming indexes binary vectors for GPH/Ring search under an
// m-part partitioning, split across the given number of shards.
// defaultTau is the threshold used when a search does not override τ.
func BuildHamming(vecs []bitvec.Vector, m, defaultTau, shards, workers int) (Index, error) {
	return buildSharded(len(vecs), shards, workers, func(lo, hi int) (*adapter, error) {
		db, err := hamming.NewDB(vecs[lo:hi], m)
		if err != nil {
			return nil, err
		}
		return newHamming(db, defaultTau)
	})
}

// BuildSet indexes token sets for pkwise/Ring search under cfg, split
// across the given number of shards.
func BuildSet(sets []tokenset.Set, cfg setsim.Config, shards, workers int) (Index, error) {
	return buildSharded(len(sets), shards, workers, func(lo, hi int) (*adapter, error) {
		db, err := setsim.NewPKWiseDB(sets[lo:hi], cfg)
		if err != nil {
			return nil, err
		}
		return newSet(db)
	})
}

// BuildString indexes strings for Pivotal/Ring edit distance search at
// threshold tau with κ-grams, split across the given number of shards.
// One gram dictionary is built over the full corpus and shared by all
// shards, so per-shard gram orders (and therefore filtering behaviour)
// match the unsharded index.
func BuildString(strs []string, kappa, tau, shards, workers int) (Index, error) {
	if len(strs) == 0 {
		return nil, fmt.Errorf("engine: empty database")
	}
	dict, err := strdist.BuildGramDict(strs, kappa)
	if err != nil {
		return nil, err
	}
	return buildSharded(len(strs), shards, workers, func(lo, hi int) (*adapter, error) {
		db, err := strdist.NewDB(strs[lo:hi], dict, tau)
		if err != nil {
			return nil, err
		}
		return newString(db)
	})
}

// BuildGraph indexes graphs for Pars/Ring GED search at threshold tau,
// split across the given number of shards.
func BuildGraph(graphs []*graph.Graph, tau, shards, workers int) (Index, error) {
	return buildSharded(len(graphs), shards, workers, func(lo, hi int) (*adapter, error) {
		db, err := graph.NewDB(graphs[lo:hi], tau)
		if err != nil {
			return nil, err
		}
		return newGraph(db)
	})
}
