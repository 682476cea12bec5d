package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
)

// spanLog collects hook invocations; safe for the concurrent callbacks
// the Hooks contract allows.
type spanLog struct {
	mu       sync.Mutex
	stages   map[Stage]int
	shards   []int
	tiles    int
	diagRows int
}

func newSpanLog() *spanLog { return &spanLog{stages: make(map[Stage]int)} }

func (l *spanLog) hooks() *Hooks {
	return &Hooks{
		Stage: func(s Stage, d time.Duration) {
			l.mu.Lock()
			defer l.mu.Unlock()
			if d < 0 {
				panic("negative span duration")
			}
			l.stages[s]++
		},
		Shard: func(shard int, d time.Duration, st Stats) {
			l.mu.Lock()
			defer l.mu.Unlock()
			l.shards = append(l.shards, shard)
		},
		Tile: func(tile, ri, rj, rows int, d time.Duration, st Stats) {
			l.mu.Lock()
			defer l.mu.Unlock()
			if ri > rj {
				panic("tile with ri > rj")
			}
			l.tiles++
			if ri == rj {
				// The diagonal tiles partition the corpus rows, so their
				// row counts must sum back to n.
				l.diagRows += rows
			}
		},
	}
}

func (l *spanLog) stageCount(s Stage) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stages[s]
}

// TestHooksPlainAdapter: one StageSearch per query; filter/verify
// spans appear exactly when Timings measures the split.
func TestHooksPlainAdapter(t *testing.T) {
	vecs := dataset.GIST(200, 21)
	ix, err := BuildHamming(vecs, 16, 24, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	l := newSpanLog()
	if _, _, err := ix.Search(ctx, VectorQuery(vecs[0]), Options{Hooks: l.hooks()}); err != nil {
		t.Fatal(err)
	}
	if got := l.stageCount(StageSearch); got != 1 {
		t.Fatalf("search spans = %d, want 1", got)
	}
	if got := l.stageCount(StageFilter) + l.stageCount(StageVerify); got != 0 {
		t.Fatalf("filter/verify spans without Timings = %d, want 0", got)
	}

	l = newSpanLog()
	if _, _, err := ix.Search(ctx, VectorQuery(vecs[0]), Options{Timings: true, Hooks: l.hooks()}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []Stage{StageSearch, StageFilter, StageVerify} {
		if got := l.stageCount(s); got != 1 {
			t.Fatalf("%s spans = %d, want 1", s, got)
		}
	}

	// Nil hooks (and nil callbacks) must be no-ops, not panics.
	if _, _, err := ix.Search(ctx, VectorQuery(vecs[0]), Options{Hooks: &Hooks{}}); err != nil {
		t.Fatal(err)
	}
}

// TestHooksSharded: the composite emits one query-level StageSearch
// and one Shard span per shard; the per-shard adapter searches stay
// silent.
func TestHooksSharded(t *testing.T) {
	vecs := dataset.GIST(300, 22)
	const shards = 3
	ix, err := BuildHamming(vecs, 16, 24, shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	l := newSpanLog()
	if _, _, err := ix.Search(context.Background(), VectorQuery(vecs[1]), Options{Hooks: l.hooks()}); err != nil {
		t.Fatal(err)
	}
	if got := l.stageCount(StageSearch); got != 1 {
		t.Fatalf("sharded search emitted %d StageSearch spans, want exactly 1", got)
	}
	l.mu.Lock()
	got := len(l.shards)
	seen := make(map[int]bool)
	for _, s := range l.shards {
		seen[s] = true
	}
	l.mu.Unlock()
	if got != shards || len(seen) != shards {
		t.Fatalf("shard spans %v, want one per shard of %d", l.shards, shards)
	}
}

// TestHooksJoin: one Tile span per 2-D tile, with the diagonal tiles'
// rows partitioning the corpus, one StageSort span, and no per-row
// search spans.
func TestHooksJoin(t *testing.T) {
	vecs := dataset.GIST(120, 23)
	ix, err := BuildHamming(vecs, 16, 24, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	l := newSpanLog()
	if _, _, err := ix.Join(context.Background(), JoinOptions{Hooks: l.hooks()}); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	tiles, diagRows := l.tiles, l.diagRows
	l.mu.Unlock()
	if tiles < 1 || diagRows != len(vecs) {
		t.Fatalf("tile spans: %d tiles, diagonal rows %d, want ≥ 1 tiles covering %d rows", tiles, diagRows, len(vecs))
	}
	if got := l.stageCount(StageSort); got != 1 {
		t.Fatalf("sort spans = %d, want 1", got)
	}
	if got := l.stageCount(StageSearch); got != 0 {
		t.Fatalf("join leaked %d per-row StageSearch spans, want 0", got)
	}
}

// TestHooksConcurrent shares one Hooks across a batch on a sharded
// index — the -race run proves the engine may invoke callbacks from
// many goroutines as documented.
func TestHooksConcurrent(t *testing.T) {
	vecs := dataset.GIST(300, 24)
	ix, err := BuildHamming(vecs, 16, 24, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	var searches, shards atomic.Int64
	h := &Hooks{
		Stage: func(s Stage, d time.Duration) {
			if s == StageSearch {
				searches.Add(1)
			}
		},
		Shard: func(int, time.Duration, Stats) { shards.Add(1) },
	}
	queries := make([]Query, 16)
	for i := range queries {
		queries[i] = VectorQuery(vecs[i])
	}
	for _, br := range SearchBatch(context.Background(), ix, queries, Options{Hooks: h}, 4) {
		if br.Err != nil {
			t.Fatal(br.Err)
		}
	}
	if got := searches.Load(); got != int64(len(queries)) {
		t.Fatalf("search spans = %d, want %d", got, len(queries))
	}
	if got := shards.Load(); got != int64(len(queries)*4) {
		t.Fatalf("shard spans = %d, want %d", got, len(queries)*4)
	}
}
