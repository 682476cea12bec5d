package engine

import "time"

// The tracing seam: Options.Hooks (and JoinOptions.Hooks) carry an
// optional set of callbacks the engine invokes at span boundaries —
// per-query stages, per-shard fan-out legs, per-tile join legs. The
// serving layer plugs latency histograms and slow-query attribution in
// here; the engine itself neither records nor aggregates anything.
//
// A nil *Hooks (the default) is a single pointer check on the search
// path — hooks cost nothing when unset, which the benchmark gate
// relies on. Individual callbacks may be nil too; only non-nil ones
// fire.

// Stage names one phase of a query's lifecycle, the label a Stage
// hook receives.
type Stage string

const (
	// StageSearch is the full search pass (filter and verification
	// interleaved), emitted once per query on every index — a sharded
	// index emits it for the whole fan-out, not per shard.
	StageSearch Stage = "search"
	// StageSort is the result-ordering step of a join (pairs are
	// merged across tiles, then sorted into (I, J) order).
	StageSort Stage = "sort"
	// StageSnapshotWrite is one full WriteSnapshot pass — serializing
	// an index into its on-disk container.
	StageSnapshotWrite Stage = "snapshot-write"
	// StageSnapshotOpen is one full OpenSnapshot pass — validating a
	// container and reconstructing the index from it.
	StageSnapshotOpen Stage = "snapshot-open"
)

// Hooks is the set of tracing callbacks; see the package comment
// above for the contract. All fields are optional.
//
// Callbacks must be fast and must not panic: they run inline on the
// search path, and on sharded or batched work they are invoked
// concurrently from multiple worker goroutines — implementations
// synchronize internally (atomic metric updates qualify).
type Hooks struct {
	// Stage fires when a per-query stage completes, with its duration.
	Stage func(stage Stage, d time.Duration)
	// Shard fires when one shard of a sharded fan-out completes, with
	// the shard ordinal, its wall-clock duration and its Stats —
	// feeding per-shard duration-spread metrics. Concurrent across
	// shards.
	Shard func(shard int, d time.Duration, st Stats)
	// Tile fires when one 2-D tile of a join completes, with the tile
	// ordinal (in the work-descending schedule order), the ordinals of
	// its row and column id ranges (ri ≤ rj; ri == rj is a diagonal
	// tile), its row count, duration and aggregate Stats. Concurrent
	// across tiles. The diagonal tiles partition the corpus rows, so
	// summing rows over callbacks with ri == rj recovers n.
	Tile func(tile, ri, rj, rows int, d time.Duration, st Stats)
	// Rung fires after each completed rung of a top-k τ-ladder with
	// the 1-based rung ordinal, the rung's threshold bound and the
	// number of candidates the rung's filter pass admitted. On a
	// sharded index every shard reports its own rungs, concurrently.
	Rung func(rung int, tau float64, candidates int)
}

// The emit helpers keep call sites to one line and centralize the
// nil checks (a nil receiver is legal and does nothing).

func (h *Hooks) stage(s Stage, d time.Duration) {
	if h != nil && h.Stage != nil {
		h.Stage(s, d)
	}
}

func (h *Hooks) rung(r int, tau float64, candidates int) {
	if h != nil && h.Rung != nil {
		h.Rung(r, tau, candidates)
	}
}

func (h *Hooks) wantShard() bool { return h != nil && h.Shard != nil }

func (h *Hooks) wantRung() bool { return h != nil && h.Rung != nil }

func (h *Hooks) wantTile() bool { return h != nil && h.Tile != nil }
