package engine

import (
	"context"
	"errors"
	"iter"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/setsim"
	"repro/internal/snapshot"
)

// Tests for the Search contract every Index shares: context
// cancellation, Options.Limit early termination, and the SearchSeq
// streaming variant, on plain and sharded indexes. They run under
// -race in CI.

// collect drains a SearchSeq iterator into a slice, returning the
// yielded error if any.
func collect(seq iter.Seq2[int64, error]) ([]int64, error) {
	var ids []int64
	for id, err := range seq {
		if err != nil {
			return ids, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// TestLimitReturnsPrefix: Options.Limit=k returns exactly the first k
// ascending ids of the unlimited search, on the plain adapters and on
// the sharded composite.
func TestLimitReturnsPrefix(t *testing.T) {
	ctx := context.Background()
	for _, tc := range buildCases(t, 4) {
		t.Run(tc.name, func(t *testing.T) {
			for qi, q := range tc.queries {
				full, _, err := tc.unsharded.Search(ctx, q, Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{1, 2, len(full), len(full) + 7} {
					if k < 1 {
						continue
					}
					want := full
					if k < len(full) {
						want = full[:k]
					}
					for name, ix := range map[string]Index{"unsharded": tc.unsharded, "sharded": tc.sharded} {
						got, st, err := ix.Search(ctx, q, Options{Limit: k})
						if err != nil {
							t.Fatalf("%s query %d limit %d: %v", name, qi, k, err)
						}
						if !sameIDs(got, want) {
							t.Fatalf("%s query %d limit %d: ids %v, want %v", name, qi, k, got, want)
						}
						if k < len(full) {
							if !st.Limited {
								t.Fatalf("%s query %d limit %d: Limited not set", name, qi, k)
							}
							if st.Results != k {
								t.Fatalf("%s query %d limit %d: Results=%d, want %d", name, qi, k, st.Results, k)
							}
						}
					}
				}
			}
		})
	}
}

// TestSearchSeqMatchesSearch: SearchSeq yields id-for-id the same
// results as the slice Search on all four backends, unsharded and
// sharded.
func TestSearchSeqMatchesSearch(t *testing.T) {
	ctx := context.Background()
	for _, tc := range buildCases(t, 3) {
		t.Run(tc.name, func(t *testing.T) {
			for qi, q := range tc.queries {
				want, _, err := tc.unsharded.Search(ctx, q, Options{})
				if err != nil {
					t.Fatal(err)
				}
				for name, ix := range map[string]Index{"unsharded": tc.unsharded, "sharded": tc.sharded} {
					got, err := collect(ix.SearchSeq(ctx, q, Options{}))
					if err != nil {
						t.Fatalf("%s query %d: %v", name, qi, err)
					}
					if !sameIDs(got, want) {
						t.Fatalf("%s query %d: seq ids %v, want %v", name, qi, got, want)
					}
				}
			}
		})
	}
}

// TestSearchSeqEarlyBreakAndLimit checks the streaming early-exit
// paths: breaking after k ids gives the k-prefix, and Options.Limit
// bounds the stream the same way.
func TestSearchSeqEarlyBreakAndLimit(t *testing.T) {
	ctx := context.Background()
	for _, tc := range buildCases(t, 4) {
		t.Run(tc.name, func(t *testing.T) {
			q := tc.queries[0]
			full, _, err := tc.unsharded.Search(ctx, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(full) == 0 {
				t.Fatalf("query 0 has no results; pick a better test query")
			}
			k := (len(full) + 1) / 2
			for name, ix := range map[string]Index{"unsharded": tc.unsharded, "sharded": tc.sharded} {
				var got []int64
				for id, err := range ix.SearchSeq(ctx, q, Options{}) {
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					got = append(got, id)
					if len(got) == k {
						break
					}
				}
				if !sameIDs(got, full[:k]) {
					t.Fatalf("%s break@%d: ids %v, want %v", name, k, got, full[:k])
				}
				got, err := collect(ix.SearchSeq(ctx, q, Options{Limit: k}))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !sameIDs(got, full[:k]) {
					t.Fatalf("%s limit %d: ids %v, want %v", name, k, got, full[:k])
				}
			}
		})
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
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestSearchSeqCancelledSharded checks the streaming path surfaces
// cancellation and drains its fan-out.
func TestSearchSeqCancelledSharded(t *testing.T) {
	release := make(chan struct{})
	sh, err := newSharded(blockingShards(4, release), 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
		close(release)
	}()
	_, err = collect(sh.SearchSeq(ctx, VectorQuery(dataset.GIST(1, 1)[0]), Options{}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("seq err = %v, want context.Canceled", err)
	}
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
		if !sameIDs(br.IDs, want) {
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
func (stubBackend) topkBounds(Options) []float64                                { return nil }
func (stubBackend) topkRung(Query, Options, float64, *resultHeap, *Stats) error { return nil }
func (stubBackend) object(int) Query                                            { return Query{kind: Hamming} }
func (stubBackend) AppendSnapshot(*snapshot.Builder, string) error              { return nil }

// TestShardedLimitedFlag: shard 0 holds ten matches and shard 1 none,
// so Limit 5 cuts the true result set and Stats.Limited must say so
// even though the last shard searched was not itself cut.
func TestShardedLimitedFlag(t *testing.T) {
	sh0 := &adapter{Hamming, 20, 1, stubBackend{ids: []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}}
	sh1 := &adapter{Hamming, 20, 1, stubBackend{}}
	s, err := newSharded([]*adapter{sh0, sh1}, 1) // 1 worker: both shards run, in order
	if err != nil {
		t.Fatal(err)
	}
	ids, st, err := s.Search(context.Background(), Query{kind: Hamming}, Options{Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(ids, []int64{0, 1, 2, 3, 4}) || !st.Limited {
		t.Errorf("ids=%v Limited=%v, want the first five ids and Limited (10 matches cut to 5)", ids, st.Limited)
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
