package engine

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/setsim"
	"repro/internal/snapshot"
)

// Tests for the Search contract every Index shares: context
// cancellation and Options.Limit early termination, on plain and
// sharded indexes. They run under -race in CI.

// TestLimitReturnsPrefix: Options.Limit=k returns exactly the first k
// ascending ids of the unlimited search, on the plain adapters and on
// the sharded composite, with Limited and Results set on a cut.
func TestLimitReturnsPrefix(t *testing.T) {
	ctx := context.Background()
	for _, tc := range buildCases(t, 4, 0) {
		t.Run(tc.name, func(t *testing.T) {
			full, _, err := tc.unsharded.Search(ctx, tc.query, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 2, len(full), len(full) + 7} {
				want := full[:min(k, len(full))]
				for name, ix := range map[string]Index{"unsharded": tc.unsharded, "sharded": tc.sharded} {
					got, st, err := ix.Search(ctx, tc.query, Options{Limit: k})
					if err != nil || !slices.Equal(got, want) {
						t.Fatalf("%s limit %d: ids %v (%v), want %v", name, k, got, err, want)
					}
					if k < len(full) && (!st.Limited || st.Results != k) {
						t.Fatalf("%s limit %d: Limited %v Results %d, want a cut at %d", name, k, st.Limited, st.Results, k)
					}
				}
			}
		})
	}
}

// settleGoroutines waits up to five seconds for the goroutine count to
// fall back to before and fails the test if it does not.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestShardedCancelPrompt: cancelling a context mid-search over a
// Sharded index returns context.Canceled promptly without leaking
// goroutines. The shards' range probes block until after the
// cancellation, so the search can only return context.Canceled by
// honoring it when the blocked shards come back.
func TestShardedCancelPrompt(t *testing.T) {
	release := make(chan struct{})
	sh, err := newSharded(blockingShards(8, release), 4)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := sh.Search(ctx, VectorQuery(dataset.GIST(1, 1)[0]), Options{})
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
		t.Fatal("cancelled search did not return within 5s")
	}

	// A context that is already dead never dispatches a shard.
	deadCtx, deadCancel := context.WithCancel(context.Background())
	deadCancel()
	sh2, err := newSharded(blockingShards(2, release), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sh2.Search(deadCtx, VectorQuery(dataset.GIST(1, 1)[0]), Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v, want context.Canceled", err)
	}

	// All fan-out goroutines must have drained; allow the runtime a
	// moment to reap them.
	settleGoroutines(t, before)
}

// TestSearchBatchCancellation: a failed context aborts the batch —
// queries that never ran carry the context's error — while per-query
// errors never abort it.
func TestSearchBatchCancellation(t *testing.T) {
	vecs := dataset.GIST(300, 21)
	ix, err := BuildHamming(vecs, 16, 24, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]Query, 64)
	for i := range queries {
		queries[i] = VectorQuery(vecs[i%len(vecs)])
	}

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for i, br := range SearchBatch(dead, ix, queries, Options{}, 4) {
		if !errors.Is(br.Err, context.Canceled) {
			t.Fatalf("query %d: err = %v, want context.Canceled", i, br.Err)
		}
	}

	// Mixed batch: a kind-mismatched query fails alone, the rest
	// succeed — per-query errors do not cancel the remainder.
	mixed := append([]Query{}, queries[:8]...)
	mixed[3] = StringQuery("wrong kind")
	results := SearchBatch(context.Background(), ix, mixed, Options{}, 4)
	for i, br := range results {
		if i == 3 {
			if br.Err == nil {
				t.Fatal("kind-mismatched query did not error")
			}
			continue
		}
		if br.Err != nil {
			t.Fatalf("query %d: %v", i, br.Err)
		}
		want, _, err := ix.Search(context.Background(), mixed[i], Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(br.IDs, want) {
			t.Fatalf("query %d diverged from single search", i)
		}
	}
}

// TestFixedTauRejection covers the fixed-τ rejection path of all three
// fixed-threshold adapters (the set case also lives in TestTauOverride).
func TestFixedTauRejection(t *testing.T) {
	ctx := context.Background()

	strs := dataset.IMDB(200, 30)
	six, err := BuildString(strs, 2, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := six.Search(ctx, StringQuery(strs[0]), Options{Tau: Tau(3)}); err == nil || !strings.Contains(err.Error(), "built for") {
		t.Fatalf("string τ override err = %v, want built-for error", err)
	}
	if _, _, err := six.Search(ctx, StringQuery(strs[0]), Options{Tau: Tau(2)}); err != nil {
		t.Fatalf("matching string τ rejected: %v", err)
	}

	graphs := dataset.AIDS(40, 31)
	gix, err := BuildGraph(graphs, 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := gix.Search(ctx, GraphQuery(graphs[0]), Options{Tau: Tau(4)}); err == nil || !strings.Contains(err.Error(), "built for") {
		t.Fatalf("graph τ override err = %v, want built-for error", err)
	}
	if _, _, err := gix.Search(ctx, GraphQuery(graphs[0]), Options{Tau: Tau(3)}); err != nil {
		t.Fatalf("matching graph τ rejected: %v", err)
	}

	sets := dataset.DBLP(200, 32)
	styp, err := BuildSet(sets, setsim.Config{Measure: setsim.Jaccard, Tau: 0.8, M: 5}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := styp.Search(ctx, SetQuery(sets[0]), Options{Tau: Tau(0.7)}); err == nil || !strings.Contains(err.Error(), "built for") {
		t.Fatalf("set τ override err = %v, want built-for error", err)
	}
}

// TestParseProblemNormalizes: names parse case-insensitively with
// surrounding whitespace ignored, and the error lists the valid names.
func TestParseProblemNormalizes(t *testing.T) {
	for in, want := range map[string]Problem{
		"hamming":   Hamming,
		"Hamming":   Hamming,
		"  SET\t":   Set,
		"String":    String,
		" graph ":   Graph,
		"GRAPH":     Graph,
		"\nstring ": String,
	} {
		p, err := ParseProblem(in)
		if err != nil || p != want {
			t.Fatalf("ParseProblem(%q) = %v, %v; want %v", in, p, err, want)
		}
	}
	_, err := ParseProblem("vector")
	if err == nil {
		t.Fatal("unknown problem accepted")
	}
	for _, name := range []string{"hamming", "set", "string", "graph"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list valid name %q", err, name)
		}
	}
}

// stubBackend is a backend whose range probes answer with a fixed id
// list; the adapter over it applies Options.Limit.
type stubBackend struct{ ids []int64 }

func (stubBackend) checkTau(*float64) error { return nil }
func (b stubBackend) searchRange(_ Query, _ Options, _, _ int, dst []int64) ([]int64, Stats, error) {
	return append(dst, b.ids...), Stats{Results: len(b.ids)}, nil
}
func (stubBackend) ladder(Query, Options) ([]float64, rungFunc, error) { return nil, nil, nil }
func (stubBackend) object(int) Query                                   { return Query{kind: Hamming} }
func (stubBackend) AppendSnapshot(*snapshot.Builder, string) error     { return nil }

// TestShardedLimitedFlag: one of two stub shards holds ten matches and
// the other none, so Limit 5 cuts the true result set and Stats.Limited
// must say so. With the matches first, the last shard searched was not
// itself cut; with them last, the only cut is that shard's own, made
// in the last delivered shard.
func TestShardedLimitedFlag(t *testing.T) {
	ten := stubBackend{ids: []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}
	for _, tc := range []struct {
		name   string
		b0, b1 stubBackend
		want   []int64
	}{
		{"matches in first shard", ten, stubBackend{}, []int64{0, 1, 2, 3, 4}},
		{"matches in last shard", stubBackend{}, ten, []int64{20, 21, 22, 23, 24}},
	} {
		sh0 := &adapter{Hamming, 20, 1, tc.b0}
		sh1 := &adapter{Hamming, 20, 1, tc.b1}
		s, err := newSharded([]*adapter{sh0, sh1}, 1) // 1 worker: both shards run, in order
		if err != nil {
			t.Fatal(err)
		}
		ids, st, err := s.Search(context.Background(), Query{kind: Hamming}, Options{Limit: 5})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ids, tc.want) || !st.Limited || st.Results != 5 {
			t.Errorf("%s: ids=%v Limited=%v Results=%d, want %v, Limited and Results 5 (10 matches cut to 5)", tc.name, ids, st.Limited, st.Results, tc.want)
		}
	}
}

// TestShardedLimitAbandonsShards: with a limit satisfied by the first
// shard, the tail shards of a wide fan-out are abandoned (observable
// through zero PerShard entries and the Limited flag).
func TestShardedLimitAbandonsShards(t *testing.T) {
	vecs := dataset.GIST(600, 33)
	ix, err := BuildHamming(vecs, 16, 24, 8, 1) // 1 worker: shards run strictly in order
	if err != nil {
		t.Fatal(err)
	}
	q := VectorQuery(vecs[0]) // id 0 lives in shard 0, so limit 1 is satisfied there
	got, st, err := ix.Search(context.Background(), q, Options{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("ids = %v, want [0]", got)
	}
	if !st.Limited {
		t.Fatal("Limited not set")
	}
	touched := 0
	for _, ps := range st.PerShard {
		if ps.TotalNS > 0 || ps.Candidates > 0 {
			touched++
		}
	}
	if touched == len(st.PerShard) {
		t.Fatalf("all %d shards searched despite limit 1 on shard 0", touched)
	}
}
