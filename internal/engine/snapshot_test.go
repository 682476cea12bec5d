package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/setsim"
	"repro/internal/snapshot"
)

// roundTrip serializes ix into memory and opens it again, failing the
// test on any error.
func roundTrip(t *testing.T, ix Index, workers int, hooks *Hooks) Index {
	t.Helper()
	var buf bytes.Buffer
	n, err := WriteSnapshot(ix, &buf, hooks)
	if err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteSnapshot reported %d bytes, wrote %d", n, buf.Len())
	}
	out, err := OpenSnapshot(bytes.NewReader(buf.Bytes()), workers, hooks)
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	return out
}

// TestSnapshotRoundTrip is the tentpole acceptance test: for every
// problem, both unsharded and sharded, a written-then-opened index
// answers every query with the exact ids and stats of the original.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, tc := range buildCases(t, 3) {
		t.Run(tc.name, func(t *testing.T) {
			for _, ix := range []Index{tc.unsharded, tc.sharded} {
				re := roundTrip(t, ix, 0, nil)
				if re.Problem() != ix.Problem() || re.Len() != ix.Len() || re.Tau() != ix.Tau() {
					t.Fatalf("identity differs: %v/%d/%v, want %v/%d/%v",
						re.Problem(), re.Len(), re.Tau(), ix.Problem(), ix.Len(), ix.Tau())
				}
				if _, wasSharded := ix.(*Sharded); wasSharded {
					if sh, ok := re.(*Sharded); !ok {
						t.Fatalf("sharded index reopened as %T", re)
					} else if sh.Shards() != ix.(*Sharded).Shards() {
						t.Fatalf("reopened with %d shards, want %d", sh.Shards(), ix.(*Sharded).Shards())
					}
				}
				for qi, q := range tc.queries {
					want, wantStats, err := ix.Search(context.Background(), q, Options{})
					if err != nil {
						t.Fatal(err)
					}
					got, gotStats, err := re.Search(context.Background(), q, Options{})
					if err != nil {
						t.Fatal(err)
					}
					if !sameIDs(got, want) {
						t.Fatalf("query %d: ids %v after round trip, want %v", qi, got, want)
					}
					if gotStats.Candidates != wantStats.Candidates || gotStats.Results != wantStats.Results {
						t.Fatalf("query %d: stats %d/%d after round trip, want %d/%d",
							qi, gotStats.Candidates, gotStats.Results, wantStats.Candidates, wantStats.Results)
					}
				}
			}
		})
	}
}

// TestObject verifies the query-by-id capability: Object(id) must
// return a query that searches identically to the original raw object,
// on a plain index, a sharded one and a sharded one reopened from a
// snapshot alike.
func TestObject(t *testing.T) {
	for _, tc := range buildCases(t, 3) {
		t.Run(tc.name, func(t *testing.T) {
			for _, ix := range []struct {
				name string
				ix   Index
			}{{"unsharded", tc.unsharded}, {"sharded", tc.sharded}, {"reopened", roundTrip(t, tc.sharded, 0, nil)}} {
				re := ix.ix
				for _, id := range []int{0, re.Len() / 2, re.Len() - 1} {
					q, err := Object(re, id)
					if err != nil {
						t.Fatalf("%s: Object(%d): %v", ix.name, id, err)
					}
					if q.Kind() != re.Problem() {
						t.Fatalf("%s: Object(%d) kind %v, want %v", ix.name, id, q.Kind(), re.Problem())
					}
					got, _, err := re.Search(context.Background(), q, Options{})
					if err != nil {
						t.Fatal(err)
					}
					want, _, err := tc.unsharded.Search(context.Background(), q, Options{})
					if err != nil {
						t.Fatal(err)
					}
					if !sameIDs(got, want) {
						t.Fatalf("%s: Object(%d) search ids %v, want %v", ix.name, id, got, want)
					}
					if !slices.Contains(got, int64(id)) {
						t.Fatalf("%s: Object(%d) search %v does not contain the object itself", ix.name, id, got)
					}
				}
				if _, err := Object(re, -1); err == nil {
					t.Fatalf("%s: negative id accepted", ix.name)
				}
				if _, err := Object(re, re.Len()); err == nil {
					t.Fatalf("%s: out-of-range id accepted", ix.name)
				}
			}
		})
	}
}

// TestSnapshotFileHelpers covers the atomic write + open-by-path pair,
// including overwrite-in-place and the reported size.
func TestSnapshotFileHelpers(t *testing.T) {
	tc := buildCases(t, 2)[0]
	path := filepath.Join(t.TempDir(), "ix.snap")
	n, err := WriteSnapshotFile(tc.sharded, path, nil)
	if err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != n {
		t.Fatalf("file is %d bytes, WriteSnapshotFile reported %d", fi.Size(), n)
	}
	// Overwrite with a different index; the open must see the new one.
	if _, err := WriteSnapshotFile(tc.unsharded, path, nil); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	ix, size, err := OpenSnapshotFile(path, 0, nil)
	if err != nil {
		t.Fatalf("OpenSnapshotFile: %v", err)
	}
	if _, isSharded := ix.(*Sharded); isSharded {
		t.Fatalf("expected the overwritten unsharded index, got %T", ix)
	}
	if size <= 0 {
		t.Fatalf("size = %d, want > 0", size)
	}
	// Leftover temp files would break the atomicity story.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("snapshot dir has %d entries, want only the snapshot", len(entries))
	}

	if _, _, err := OpenSnapshotFile(filepath.Join(t.TempDir(), "missing"), 0, nil); err == nil {
		t.Fatal("missing file opened")
	}
}

// TestSnapshotRejectsWrongContainer checks the typed failure modes at
// the engine layer: foreign backend tags and truncation.
func TestSnapshotRejectsWrongContainer(t *testing.T) {
	var raw bytes.Buffer
	b := snapshot.NewBuilder()
	b.AddU64s("meta", []uint64{1})
	if _, err := b.WriteTo(&raw, "something-else"); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshot(bytes.NewReader(raw.Bytes()), 0, nil); !errors.Is(err, snapshot.ErrBackend) {
		t.Fatalf("foreign backend err = %v, want ErrBackend", err)
	}

	tc := buildCases(t, 2)[0]
	var buf bytes.Buffer
	if _, err := WriteSnapshot(tc.unsharded, &buf, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshot(bytes.NewReader(buf.Bytes()[:buf.Len()/2]), 0, nil); err == nil {
		t.Fatal("truncated snapshot opened")
	}
}

// TestSnapshotHooks verifies the tracing spans fire once per pass.
func TestSnapshotHooks(t *testing.T) {
	var mu sync.Mutex
	got := map[Stage]int{}
	hooks := &Hooks{Stage: func(s Stage, d time.Duration) {
		mu.Lock()
		got[s]++
		mu.Unlock()
		if d < 0 {
			t.Errorf("stage %v duration %v", s, d)
		}
	}}
	tc := buildCases(t, 2)[0]
	roundTrip(t, tc.sharded, 0, hooks)
	if got[StageSnapshotWrite] != 1 || got[StageSnapshotOpen] != 1 {
		t.Fatalf("spans = %v, want one write and one open", got)
	}
}

// engineContainer writes ix's shards under hand-chosen engine/problem
// and engine/meta sections, the two sections OpenSnapshot trusts
// before any backend validation runs.
func engineContainer(tb testing.TB, ix Index, problem string, meta []uint64) []byte {
	tb.Helper()
	shards := []*adapter{}
	switch ix := ix.(type) {
	case *adapter:
		shards = append(shards, ix)
	case *Sharded:
		shards = ix.shards
	}
	b := snapshot.NewBuilder()
	b.Add("engine/problem", []byte(problem))
	b.AddU64s("engine/meta", meta)
	for i, sh := range shards {
		if err := sh.b.AppendSnapshot(b, fmt.Sprintf("s%d/", i)); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf, SnapshotBackend); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzOpenSnapshot: any byte string either fails to open or opens as
// an Index whose Search and Join on object 0 run without panicking.
func FuzzOpenSnapshot(f *testing.F) {
	vecs := dataset.GIST(24, 21)
	sets := dataset.DBLP(24, 22)
	var seeds []Index
	for _, shards := range []int{1, 2} {
		h, err := BuildHamming(vecs, 16, 24, shards, 1)
		if err != nil {
			f.Fatal(err)
		}
		s, err := BuildSet(sets, setsim.Config{Measure: setsim.Jaccard, Tau: 0.8, M: 5}, shards, 1)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, h, s)
	}
	for _, ix := range seeds {
		var buf bytes.Buffer
		if _, err := WriteSnapshot(ix, &buf, nil); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	h, s := seeds[2], seeds[3] // the 2-shard pair
	for _, meta := range [][]uint64{
		{0, math.Float64bits(24)},
		{1<<20 + 1, math.Float64bits(24)},
		{2, math.Float64bits(math.NaN())},
		{2, math.Float64bits(23)},
	} {
		f.Add(engineContainer(f, h, "hamming", meta))
	}
	f.Add(engineContainer(f, s, "set", []uint64{2, math.Float64bits(0.5)}))
	f.Add(engineContainer(f, s, "set", []uint64{2, math.Float64bits(math.NaN())}))
	f.Add(engineContainer(f, h, "vector", []uint64{2, math.Float64bits(24)}))
	f.Add(engineContainer(f, h, "set", []uint64{2, math.Float64bits(0.8)}))
	g, err := BuildGraph(dataset.AIDS(6, 23), 2, 2, 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(engineContainer(f, g, "graph", []uint64{2, math.Float64bits(2)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := OpenSnapshot(bytes.NewReader(data), 1, nil)
		if err != nil {
			return
		}
		ctx := context.Background()
		if ix.Len() > 0 {
			q, err := Object(ix, 0)
			if err != nil {
				t.Fatalf("opened index cannot replay object 0: %v", err)
			}
			if _, _, err := ix.Search(ctx, q, Options{}); err != nil {
				t.Fatalf("opened index cannot search object 0: %v", err)
			}
		}
		if _, _, err := ix.Join(ctx, JoinOptions{}); err != nil {
			t.Fatalf("opened index cannot join: %v", err)
		}
	})
}
