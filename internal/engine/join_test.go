package engine

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/snapshot"
)

// Tests for the join API's cancellation paths, a skip-verify join and a
// tiled Limit prefix. Join output, Limit prefixes and every
// tiling against the backends' JoinLinear are TestExactness's join
// steps.

// TestJoinSkipVerify: a skip-verify join fills the work counters but
// returns no pairs.
func TestJoinSkipVerify(t *testing.T) {
	vecs := dataset.GIST(200, 15)
	ix, err := BuildHamming(vecs, 16, 24, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	ps, st, err := ix.Join(context.Background(), JoinOptions{SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 0 || st.Candidates == 0 {
		t.Fatalf("skip-verify join returned %d pairs and %d candidates", len(ps), st.Candidates)
	}
}

// TestJoinLimitPrefixTiled: Limit composes with an explicit TileSize —
// the first k pairs of the (I, J) order, regardless of which tile
// produced them.
func TestJoinLimitPrefixTiled(t *testing.T) {
	ctx := context.Background()
	vecs := dataset.GIST(300, 11)
	for _, shards := range []int{1, 4} {
		ix, err := BuildHamming(vecs, 16, 24, shards, 0)
		if err != nil {
			t.Fatal(err)
		}
		full, _, err := ix.Join(ctx, JoinOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(full) < 2 {
			t.Fatalf("corpus yields only %d pairs; test needs ≥ 2", len(full))
		}
		k := len(full) / 2
		got, st, err := ix.Join(ctx, JoinOptions{Limit: k, TileSize: 17})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, full[:k]) || !st.Limited {
			t.Fatalf("shards=%d: limited tiled join %v (Limited %v), want the cut prefix %v", shards, got, st.Limited, full[:k])
		}
	}
}

// blockingBackend is a backend whose range probes block until release
// is closed. A join over it finishes with a nil error unless it checks
// its context between row probes.
type blockingBackend struct{ release chan struct{} }

func (blockingBackend) checkTau(*float64) error { return nil }
func (b blockingBackend) searchRange(_ Query, _ Options, _, _ int, dst []int64) ([]int64, Stats, error) {
	<-b.release
	return dst, Stats{}, nil
}
func (blockingBackend) ladder(Query, Options) ([]float64, rungFunc, error) { return nil, nil, nil }
func (blockingBackend) object(int) Query                                   { return VectorQuery(dataset.GIST(1, 1)[0]) }
func (blockingBackend) AppendSnapshot(*snapshot.Builder, string) error     { return nil }

// blockingShards returns n ten-object adapters over one blockingBackend.
func blockingShards(n int, release chan struct{}) []*adapter {
	shards := make([]*adapter, n)
	for i := range shards {
		shards[i] = &adapter{Hamming, 10, 1, blockingBackend{release}}
	}
	return shards
}

// TestJoinCancelPrompt is the cancellation acceptance criterion:
// cancelling mid-join returns ctx.Err() promptly without leaking
// goroutines. Row probes block until after the cancellation, so the
// join can only return ctx.Err() by honoring it between probes.
func TestJoinCancelPrompt(t *testing.T) {
	release := make(chan struct{})
	sh, err := newSharded(blockingShards(8, release), 4)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := sh.Join(ctx, JoinOptions{})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the fan-out start
	cancel()
	close(release)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled join did not return within 5s")
	}

	// A context that is already dead never dispatches a tile —
	// on the sharded composite and on a plain adapter alike.
	dead, deadCancel := context.WithCancel(context.Background())
	deadCancel()
	if _, _, err := sh.Join(dead, JoinOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled sharded err = %v, want context.Canceled", err)
	}
	vecs := dataset.GIST(50, 16)
	plain, err := BuildHamming(vecs, 16, 24, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := plain.Join(dead, JoinOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled plain err = %v, want context.Canceled", err)
	}

	// All fan-out goroutines must have drained; allow the runtime a
	// moment to reap them.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}
