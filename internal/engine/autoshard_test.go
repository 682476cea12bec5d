package engine

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitvec"
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

// TestAutoShardSearchPairIdentity: AutoShards resolves through
// AutoShardCount, so a corpus past the 50 000-object threshold builds
// several shards, and that index answers id-for-id like a forced
// single shard. The vectors are 64-bit in four parts, which builds in
// well under a second.
func TestAutoShardSearchPairIdentity(t *testing.T) {
	const n = 60_000
	rng := rand.New(rand.NewSource(17))
	vecs := make([]bitvec.Vector, n)
	for i := range vecs {
		vecs[i] = bitvec.Random(rng, 64)
	}
	// Plant near-duplicates of vecs[0] so its search crosses shards.
	for i := 1; i < n; i += n / 7 {
		vecs[i] = vecs[0].Clone()
		vecs[i].Flip(i % 64)
	}
	auto, err := BuildHamming(vecs, 4, 3, AutoShards, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sh, ok := auto.(*Sharded); !ok || sh.Shards() != AutoShardCount(n) {
		t.Fatalf("AutoShards at n=%d built %T, want a *Sharded with AutoShardCount(%d) = %d shards", n, auto, n, AutoShardCount(n))
	}
	forced1, err := BuildHamming(vecs, 4, 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, qi := range []int{0, 1, rng.Intn(n)} {
		want, _, err := forced1.Search(context.Background(), VectorQuery(vecs[qi]), Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := auto.Search(context.Background(), VectorQuery(vecs[qi]), Options{})
		if err != nil || !slices.Equal(got, want) || qi == 0 && len(want) < 8 {
			t.Fatalf("query %d: auto ids %v (%v), forced single shard %v", qi, got, err, want)
		}
	}
}
