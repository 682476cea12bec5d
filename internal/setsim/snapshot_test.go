package setsim

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/tokenset"
)

// writeSnapshot packs db's section group into a container the way the
// engine packs one shard, and returns the file's bytes.
func writeSnapshot(t testing.TB, db *PKWiseDB) []byte {
	t.Helper()
	b := snapshot.NewBuilder()
	if err := db.AppendSnapshot(b, ""); err != nil {
		t.Fatal(err)
	}
	return snapshotFile(t, b)
}

// openSnapshot opens data and reads its setsim group the way the
// engine opens one shard.
func openSnapshot(data []byte) (*PKWiseDB, error) {
	rd, err := snapshot.Open(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return OpenSnapshotAt(rd, "")
}

func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sets := genSets(rng, 300, 15, 300)
	for _, cfg := range []Config{
		{Measure: Jaccard, Tau: 0.7, M: 5},
		{Measure: Overlap, Tau: 4, M: 4},
	} {
		db, err := NewPKWiseDB(sets, cfg)
		if err != nil {
			t.Fatal(err)
		}
		db2, err := openSnapshot(writeSnapshot(t, db))
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		c2 := db2.Config()
		if db2.Len() != db.Len() || c2.Measure != cfg.Measure || c2.Tau != cfg.Tau || c2.M != cfg.M {
			t.Fatalf("got (%d,%+v), want (%d,%+v)", db2.Len(), c2, db.Len(), cfg)
		}
		for id := range sets {
			if db2.PrefixLen(id) != db.PrefixLen(id) {
				t.Fatalf("prefix length of %d differs", id)
			}
		}
		for qi := 0; qi < 20; qi++ {
			q := sets[rng.Intn(len(sets))]
			for _, l := range []int{1, 2, 3} {
				got, gst, err := db2.Search(q, l)
				if err != nil {
					t.Fatal(err)
				}
				want, wst, err := db.Search(q, l)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gst, wst) {
					t.Fatalf("cfg=%+v q%d l=%d: (%v,%+v) want (%v,%+v)",
						cfg, qi, l, got, gst, want, wst)
				}
			}
		}
	}
}

func TestSnapshotRejectsCustomClass(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sets := genSets(rng, 50, 10, 100)
	db, err := NewPKWiseDB(sets, Config{
		Measure: Overlap, Tau: 3, M: 4,
		Class: func(tok int32) int { return int(tok)%3 + 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AppendSnapshot(snapshot.NewBuilder(), ""); err == nil {
		t.Fatal("AppendSnapshot accepted a custom Class function")
	}
}

// snapshotFile serializes a section group as a container holding one
// setsim group.
func snapshotFile(t testing.TB, b *snapshot.Builder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf, "setsim"); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// setSections adds the sections AppendSnapshot writes for sets under
// cfg, with the stored set count overridable for malformed-file cases.
func setSections(b *snapshot.Builder, sets []tokenset.Set, cfg Config, n uint64) {
	b.AddU64s("meta", []uint64{uint64(cfg.Measure), uint64(cfg.M), n, math.Float64bits(cfg.Tau)})
	lens := make([]int, len(sets))
	var toks []int32
	for i, s := range sets {
		lens[i] = len(s)
		toks = append(toks, s...)
	}
	b.AddU64s("sets.off", snapshot.Offsets(lens))
	b.AddI32s("sets.toks", toks)
}

// TestSnapshotIgnoresStoredIndex: a file in the layout that also stored
// the derived tables still opens, and what it stored there is not
// trusted. The forgery — valid checksums over wrong prefix lengths and
// posting ids that are negative, out of range and descending — used to
// open as-is and panic at the first search; now it answers exactly like
// a clean build of the same sets.
func TestSnapshotIgnoresStoredIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	sets := genSets(rng, 120, 12, 150)
	cfg := Config{Measure: Jaccard, Tau: 0.7, M: 5}
	b := snapshot.NewBuilder()
	setSections(b, sets, cfg, uint64(len(sets)))
	b.AddI32s("px", make([]int32, len(sets)))
	b.AddI32s("post.keys", []int32{0, 1, 2})
	b.AddU64s("post.off", []uint64{0, 2, 4, 6})
	b.AddI32s("post.ids", []int32{1 << 30, -1, 7, 3, int32(len(sets)), 0})
	db, err := openSnapshot(snapshotFile(t, b))
	if err != nil {
		t.Fatalf("old-layout snapshot no longer opens: %v", err)
	}
	clean, err := NewPKWiseDB(sets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id, q := range sets {
		if db.PrefixLen(id) != clean.PrefixLen(id) {
			t.Fatalf("prefix length of %d: %d, want %d", id, db.PrefixLen(id), clean.PrefixLen(id))
		}
		got, gst, err := db.Search(q, 2)
		if err != nil {
			t.Fatal(err)
		}
		want, wst, err := clean.Search(q, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) || gst != wst {
			t.Fatalf("q%d: (%v,%+v), want (%v,%+v)", id, got, gst, want, wst)
		}
	}
}

// TestSnapshotRejectsMalformed: every structural defect fails with an
// error wrapping snapshot.ErrFormat, before anything is sized from a
// stored count.
func TestSnapshotRejectsMalformed(t *testing.T) {
	sets := []tokenset.Set{{1, 2, 3}, {2, 3, 4, 5}}
	cfg := Config{Measure: Jaccard, Tau: 0.7, M: 5}
	cases := map[string]func(b *snapshot.Builder){
		"short meta": func(b *snapshot.Builder) { b.AddU64s("meta", []uint64{0, 5}) },
		"set count beyond the offsets": func(b *snapshot.Builder) {
			setSections(b, sets, cfg, 1<<40)
		},
		"no offsets": func(b *snapshot.Builder) {
			b.AddU64s("meta", []uint64{0, 5, 0, math.Float64bits(0.7)})
			b.AddU64s("sets.off", nil)
			b.AddI32s("sets.toks", nil)
		},
		"offsets not monotone": func(b *snapshot.Builder) {
			b.AddU64s("meta", []uint64{0, 5, 2, math.Float64bits(0.7)})
			b.AddU64s("sets.off", []uint64{0, 9, 7})
			b.AddI32s("sets.toks", []int32{1, 2, 3, 4, 5, 6, 7})
		},
		"unsorted set": func(b *snapshot.Builder) {
			setSections(b, []tokenset.Set{{3, 1}}, cfg, 1)
		},
		"unknown measure": func(b *snapshot.Builder) {
			setSections(b, sets, Config{Measure: 7, Tau: 0.7, M: 5}, 2)
		},
		"NaN threshold": func(b *snapshot.Builder) {
			setSections(b, sets, Config{Measure: Jaccard, Tau: math.NaN(), M: 5}, 2)
		},
		"box count sized to exhaust memory": func(b *snapshot.Builder) {
			setSections(b, sets, Config{Measure: Jaccard, Tau: 0.7, M: 1 << 40}, 2)
		},
	}
	for name, fill := range cases {
		b := snapshot.NewBuilder()
		fill(b)
		_, err := openSnapshot(snapshotFile(t, b))
		if !errors.Is(err, snapshot.ErrFormat) {
			t.Errorf("%s: err = %v, want one wrapping snapshot.ErrFormat", name, err)
		}
	}
}

// FuzzOpenSnapshot: arbitrary bytes either fail to open with an error
// or yield a DB that answers searches; never a panic.
func FuzzOpenSnapshot(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	sets := genSets(rng, 40, 6, 50)
	db, err := NewPKWiseDB(sets, Config{Measure: Jaccard, Tau: 0.7, M: 4})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(writeSnapshot(f, db))
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := openSnapshot(data)
		if err != nil {
			return
		}
		for _, q := range []tokenset.Set{{0, 1, 2, 3, 5, 8}, sets[3]} {
			if _, _, err := db.Search(q, 2); err != nil {
				t.Fatalf("opened snapshot cannot be searched: %v", err)
			}
		}
		if db.Len() > 0 {
			if _, err := db.SearchRangeAppend(db.Set(0), db.Config().M, false, 0, db.Len(), nil, new(Stats)); err != nil {
				t.Fatalf("opened snapshot cannot be range-searched: %v", err)
			}
		}
	})
}
