package engine

import (
	"context"
	"errors"
	"iter"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/hamming"
	"repro/internal/setsim"
	"repro/internal/snapshot"
	"repro/internal/strdist"
)

// Tests for the join API: engine Join parity against the backends'
// quadratic JoinLinear references, sharded-versus-unsharded pair
// identity, JoinSeq streaming, Limit prefixes and cancellation. The
// -race acceptance criteria of the join redesign live here.

// joinCase binds the engine indexes of one problem (unsharded, 4-way
// sharded, and 3-way sharded reopened through a snapshot, all over
// identical data) to the reference pair list of the backend's
// quadratic JoinLinear (or, for the duplicates case, a literal list).
type joinCase struct {
	name      string
	unsharded Index
	sharded   Index
	reopened  Index
	want      []Pair
}

// toEnginePairs widens a backend pair list into the engine id space.
func toEnginePairs[P ~struct{ I, J int }](ps []P) []Pair {
	out := make([]Pair, len(ps))
	for i, p := range ps {
		q := (struct{ I, J int })(p)
		out[i] = Pair{I: int64(q.I), J: int64(q.J)}
	}
	return out
}

func samePairs(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func buildJoinCases(t *testing.T) []joinCase {
	t.Helper()
	var cases []joinCase
	add := func(name string, want []Pair, build func(shards int) (Index, error)) {
		var ix [3]Index
		for i, shards := range []int{1, 4, 3} {
			var err error
			if ix[i], err = build(shards); err != nil {
				t.Fatal(err)
			}
		}
		cases = append(cases, joinCase{name, ix[0], ix[1], roundTrip(t, ix[2], 0, nil), want})
	}

	vecs := dataset.GIST(300, 11)
	hdb, err := hamming.NewDB(vecs, 16)
	if err != nil {
		t.Fatal(err)
	}
	add("hamming", toEnginePairs(hdb.JoinLinear(24)), func(shards int) (Index, error) {
		return BuildHamming(vecs, 16, 24, shards, 0)
	})

	// Three byte-identical vectors at τ = 0, two of them in another
	// shard than the first: each unordered pair exactly once, I < J, no
	// self pair. The want list is spelled out, not taken from an oracle.
	rng := rand.New(rand.NewSource(78))
	dups := make([]bitvec.Vector, 120)
	for i := range dups {
		dups[i] = bitvec.Random(rng, 64)
	}
	dups[50], dups[51] = dups[10].Clone(), dups[10].Clone()
	add("hamming-duplicates", []Pair{{10, 50}, {10, 51}, {50, 51}}, func(shards int) (Index, error) {
		return BuildHamming(dups, 8, 0, shards, 0)
	})

	sets := dataset.DBLP(300, 12)
	cfg := setsim.Config{Measure: setsim.Jaccard, Tau: 0.8, M: 5}
	sdb, err := setsim.NewPKWiseDB(sets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	add("set", toEnginePairs(sdb.JoinLinear()), func(shards int) (Index, error) {
		return BuildSet(sets, cfg, shards, 0)
	})

	strs := dataset.IMDB(300, 13)
	dict, err := strdist.BuildGramDict(strs, 2)
	if err != nil {
		t.Fatal(err)
	}
	tdb, err := strdist.NewDB(strs, dict, 2)
	if err != nil {
		t.Fatal(err)
	}
	add("string", toEnginePairs(tdb.JoinLinear()), func(shards int) (Index, error) {
		return BuildString(strs, 2, 2, shards, 0)
	})

	graphs := dataset.AIDS(60, 14)
	gdb, err := graph.NewDB(graphs, 3)
	if err != nil {
		t.Fatal(err)
	}
	add("graph", toEnginePairs(gdb.JoinLinear()), func(shards int) (Index, error) {
		return BuildGraph(graphs, 3, shards, 0)
	})

	return cases
}

// TestJoinMatchesJoinLinear is the acceptance criterion: for every
// backend and shard count ∈ {1, 4}, engine Join output is
// pair-for-pair identical to the backend's sequential JoinLinear, at
// both the default chain length and the pigeonhole baseline l = 1.
func TestJoinMatchesJoinLinear(t *testing.T) {
	ctx := context.Background()
	for _, tc := range buildJoinCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			for name, ix := range map[string]Index{"shards=1": tc.unsharded, "shards=4": tc.sharded} {
				for _, l := range []int{0, 1} {
					got, st, err := ix.Join(ctx, JoinOptions{ChainLength: l})
					if err != nil {
						t.Fatalf("%s l=%d: %v", name, l, err)
					}
					if !samePairs(got, tc.want) {
						t.Fatalf("%s l=%d: %d pairs %v, want %d pairs %v", name, l, len(got), got, len(tc.want), tc.want)
					}
					if st.Pairs != len(tc.want) || st.Results != len(tc.want) {
						t.Fatalf("%s l=%d: Stats.Pairs=%d Results=%d, want %d", name, l, st.Pairs, st.Results, len(tc.want))
					}
					if st.JoinTiles < 1 {
						t.Fatalf("%s l=%d: JoinTiles=%d, want ≥ 1", name, l, st.JoinTiles)
					}
					if st.Limited {
						t.Fatalf("%s l=%d: Limited set on an unlimited join", name, l)
					}
				}
			}
		})
	}
}

// TestJoinLimitPrefix: JoinOptions.Limit=k returns exactly the first k
// pairs of the unlimited (I, J) order, on plain and sharded indexes,
// with Limited set iff pairs were cut.
func TestJoinLimitPrefix(t *testing.T) {
	ctx := context.Background()
	for _, tc := range buildJoinCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			full := tc.want
			for name, ix := range map[string]Index{"shards=1": tc.unsharded, "shards=4": tc.sharded} {
				for _, k := range []int{1, (len(full) + 1) / 2, len(full), len(full) + 7} {
					if k < 1 {
						continue
					}
					want := full
					if k < len(full) {
						want = full[:k]
					}
					got, st, err := ix.Join(ctx, JoinOptions{Limit: k})
					if err != nil {
						t.Fatalf("%s limit %d: %v", name, k, err)
					}
					if !samePairs(got, want) {
						t.Fatalf("%s limit %d: pairs %v, want %v", name, k, got, want)
					}
					if wantCut := k < len(full); st.Limited != wantCut {
						t.Fatalf("%s limit %d: Limited=%v, want %v", name, k, st.Limited, wantCut)
					}
					if st.Pairs != len(want) {
						t.Fatalf("%s limit %d: Pairs=%d, want %d", name, k, st.Pairs, len(want))
					}
				}
			}
		})
	}
}

// collectPairs drains a JoinSeq iterator, returning the yielded error
// if any.
func collectPairs(seq iter.Seq2[Pair, error]) ([]Pair, error) {
	var ps []Pair
	for p, err := range seq {
		if err != nil {
			return ps, err
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// TestJoinSeqMatchesJoin: the streaming variant yields pair-for-pair
// the slice Join's output, and breaking early yields a prefix.
func TestJoinSeqMatchesJoin(t *testing.T) {
	ctx := context.Background()
	for _, tc := range buildJoinCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			for name, ix := range map[string]Index{"shards=1": tc.unsharded, "shards=4": tc.sharded} {
				got, err := collectPairs(ix.JoinSeq(ctx, JoinOptions{}))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !samePairs(got, tc.want) {
					t.Fatalf("%s: seq pairs %v, want %v", name, got, tc.want)
				}
				if len(tc.want) == 0 {
					continue
				}
				k := (len(tc.want) + 1) / 2
				var prefix []Pair
				for p, err := range ix.JoinSeq(ctx, JoinOptions{}) {
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					prefix = append(prefix, p)
					if len(prefix) == k {
						break
					}
				}
				if !samePairs(prefix, tc.want[:k]) {
					t.Fatalf("%s break@%d: pairs %v, want %v", name, k, prefix, tc.want[:k])
				}
			}
		})
	}
}

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
	if len(ps) != 0 {
		t.Fatalf("skip-verify join returned %d pairs", len(ps))
	}
	if st.Candidates == 0 {
		t.Fatal("skip-verify join reports zero candidates")
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
func (blockingBackend) topkBounds(Options) []float64                                { return nil }
func (blockingBackend) topkRung(Query, Options, float64, *resultHeap, *Stats) error { return nil }
func (blockingBackend) object(int) Query                                            { return VectorQuery(dataset.GIST(1, 1)[0]) }
func (blockingBackend) AppendSnapshot(*snapshot.Builder, string) error              { return nil }

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

// TestJoinSeqCancelled: the streaming join surfaces a mid-run
// cancellation as its final yielded error.
func TestJoinSeqCancelled(t *testing.T) {
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
	_, err = collectPairs(sh.JoinSeq(ctx, JoinOptions{}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("seq err = %v, want context.Canceled", err)
	}
}
