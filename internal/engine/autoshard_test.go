package engine

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/setsim"
	"repro/internal/tokenset"
)

// TestAutoShardCountDeterministic pins the documented auto-selection
// rule: 1 shard below 50,000 objects, then one per 25,000 capped at 8,
// monotone in n. The function must stay a pure function of n so index
// layout never depends on the host.
func TestAutoShardCountDeterministic(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 1}, {2_000, 1}, {49_999, 1},
		{50_000, 2}, {60_000, 2}, {74_999, 2},
		{75_000, 3}, {100_000, 4}, {200_000, 8},
		{1_000_000, 8}, {10_000_000, 8},
	}
	for _, c := range cases {
		if got := AutoShardCount(c.n); got != c.want {
			t.Errorf("AutoShardCount(%d) = %d, want %d", c.n, got, c.want)
		}
		// Same input, same output — trivially true for a pure function,
		// but this guards against someone wiring in host state.
		if AutoShardCount(c.n) != AutoShardCount(c.n) {
			t.Errorf("AutoShardCount(%d) not deterministic", c.n)
		}
	}
	prev := 0
	for n := 0; n <= 300_000; n += 1_000 {
		got := AutoShardCount(n)
		if got < prev {
			t.Fatalf("AutoShardCount not monotone: f(%d) = %d < %d", n, got, prev)
		}
		prev = got
	}
}

// TestAutoShardSearchPairIdentity: a corpus big enough for the auto
// rule to pick multiple shards must return id-for-id identical search
// results under the auto-selected count and under forced counts.
func TestAutoShardSearchPairIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 60k-vector index")
	}
	const n, d, m = 60_000, 128, 8
	rng := rand.New(rand.NewSource(17))
	vecs := make([]bitvec.Vector, n)
	for i := range vecs {
		vecs[i] = bitvec.Random(rng, d)
	}
	auto, err := BuildHamming(vecs, m, 24, AutoShards, 0)
	if err != nil {
		t.Fatal(err)
	}
	sh, ok := auto.(*Sharded)
	if !ok {
		t.Fatalf("AutoShards at n=%d built %T, want *Sharded", n, auto)
	}
	if got, want := sh.Shards(), AutoShardCount(n); got != want {
		t.Fatalf("auto-built index has %d shards, want AutoShardCount(%d) = %d", got, n, want)
	}
	forced1, err := BuildHamming(vecs, m, 24, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	forced5, err := BuildHamming(vecs, m, 24, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for qi := 0; qi < 5; qi++ {
		q := VectorQuery(vecs[rng.Intn(n)])
		want, _, err := forced1.Search(ctx, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for name, ix := range map[string]Index{"auto": auto, "forced5": forced5} {
			got, _, err := ix.Search(ctx, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d results, want %d", name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: result %d = %d, want %d", name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestAutoShardJoinPairIdentity: join output must be pair-identical
// between an auto-selected build (1 shard at small n) and forced
// multi-shard builds.
func TestAutoShardJoinPairIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sets := make([]tokenset.Set, 400)
	for i := range sets {
		n := 4 + rng.Intn(12)
		seen := map[int32]bool{}
		var toks []int32
		for len(toks) < n {
			tk := int32(rng.Intn(300))
			if !seen[tk] {
				seen[tk] = true
				toks = append(toks, tk)
			}
		}
		slices.Sort(toks)
		sets[i] = tokenset.Set(toks)
	}
	cfg := setsim.Config{Measure: setsim.Jaccard, Tau: 0.6, M: 3}
	auto, err := BuildSet(sets, cfg, AutoShards, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, isSharded := auto.(*Sharded); isSharded {
		t.Fatalf("AutoShards at n=%d built a Sharded, want a plain adapter", len(sets))
	}
	forced4, err := BuildSet(sets, cfg, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, _, err := auto.Join(ctx, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := forced4.Join(ctx, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("join: %d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("join pair %d = %v, want %v", i, got[i], want[i])
		}
	}
}
