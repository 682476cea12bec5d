package strdist

import (
	"bytes"
	"errors"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/snapshot"
)

// snapshotFixture indexes 300 random strings at τ = 2, κ = 2 — a spread
// of lengths so the corpus holds short strings (nil pivotal signature)
// alongside full-signature ones — and returns the DB, its snapshot
// bytes and the rng that built it.
func snapshotFixture(t testing.TB) (*DB, []byte, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(29))
	strs := make([]string, 300)
	for i := range strs {
		strs[i] = randString(rng, 30, 4)
	}
	dict, err := BuildGramDict(strs, 2)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDB(strs, dict, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.short) < 2 {
		t.Fatalf("fixture holds %d short strings, want ≥ 2", len(db.short))
	}
	var buf bytes.Buffer
	if _, err := db.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return db, buf.Bytes(), rng
}

func TestSnapshotRoundTrip(t *testing.T) {
	db, snap, rng := snapshotFixture(t)
	strs := db.strs
	db2, err := OpenSnapshot(bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	if db2.Len() != db.Len() || db2.Tau() != db.Tau() {
		t.Fatalf("geometry differs: (%d,%d) want (%d,%d)", db2.Len(), db2.Tau(), db.Len(), db.Tau())
	}
	for id := range strs {
		if db2.String(id) != db.String(id) {
			t.Fatalf("string %d differs", id)
		}
		if (db.pivotal[id] == nil) != (db2.pivotal[id] == nil) {
			t.Fatalf("string %d: pivotal nil-ness differs after round trip", id)
		}
	}

	opts := []Options{PivotalOptions(), RingOptions(2), RingOptions(3),
		{Ring: true, ChainLength: 3, SkipVerify: true}}
	for qi := 0; qi < 30; qi++ {
		q := strs[rng.Intn(len(strs))]
		if qi%3 == 0 {
			q = randString(rng, 25, 4) // out-of-corpus queries too
		}
		for _, opt := range opts {
			got, gst, err := db2.Search(q, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, wst, err := db.Search(q, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gst, wst) {
				t.Fatalf("q%d opt=%+v: (%v,%+v) want (%v,%+v)", qi, opt, got, gst, want, wst)
			}
		}
	}
}

// forge rewrites one section of a snapshot with fresh checksums, so the
// container opens and only the strdist validation can catch the edit.
// The section's payload is decoded as int32s, or as uint64s for u64
// sections, and replaced by edit's result.
func forge[T int32 | uint64](t testing.TB, snap []byte, section string, edit func(v []T) []T) []byte {
	t.Helper()
	rd, err := snapshot.Open(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	b := snapshot.NewBuilder()
	for _, name := range rd.Sections() {
		data, err := rd.Section(name)
		if err != nil {
			t.Fatal(err)
		}
		if name == section {
			switch edit := any(edit).(type) {
			case func([]int32) []int32:
				v, err := snapshot.BytesI32(data)
				if err != nil {
					t.Fatal(err)
				}
				data = snapshot.I32Bytes(edit(v))
			case func([]uint64) []uint64:
				v, err := snapshot.BytesU64(data)
				if err != nil {
					t.Fatal(err)
				}
				data = snapshot.U64Bytes(edit(v))
			}
		}
		b.Add(name, data)
	}
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf, SnapshotBackend); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRejectsForgedTables: a container with valid checksums but
// an id, position, box or count that search would index with out of
// range fails to open with snapshot.ErrFormat instead of panicking in a
// later Search.
func TestSnapshotRejectsForgedTables(t *testing.T) {
	db, snap, _ := snapshotFixture(t)
	if _, err := OpenSnapshot(bytes.NewReader(forge(t, snap, "", func(v []int32) []int32 { return v }))); err != nil {
		t.Fatalf("unedited resnapshot: %v", err)
	}
	var signed []int32 // ids with a pivotal signature
	for id, pv := range db.pivotal {
		if pv != nil {
			signed = append(signed, int32(id))
		}
	}
	// The first prefix-posting list with two distinct ids.
	var first, last int
	for _, k := range slices.Sorted(maps.Keys(db.preIdx)) {
		if ps := db.preIdx[k]; ps[0].id != ps[len(ps)-1].id {
			last = first + len(ps) - 1
			break
		}
		first += len(db.preIdx[k])
	}
	if last == 0 {
		t.Fatal("no prefix-posting list holds two distinct ids")
	}
	forged := map[string][]byte{
		"pividx posting id ≥ n": forge(t, snap, "pividx.post", func(v []int32) []int32 {
			v[0] = 100000
			return v
		}),
		"short id ≥ n": forge(t, snap, "short", func(v []int32) []int32 {
			v[len(v)-1] = 99999
			return v
		}),
		"pivotal gram past its string's end": forge(t, snap, "piv.grams", func(v []int32) []int32 {
			v[1] = 5000
			return v
		}),
		"negative pivotal position": forge(t, snap, "piv.grams", func(v []int32) []int32 {
			v[1] = -1
			return v
		}),
		"posting ids out of order": forge(t, snap, "preidx.post", func(v []int32) []int32 {
			v[2*first], v[2*last] = v[2*last], v[2*first]
			return v
		}),
		"posting names a short string": forge(t, snap, "preidx.post", func(v []int32) []int32 {
			v[0] = db.short[0]
			return v
		}),
		"box > τ": forge(t, snap, "pividx.post", func(v []int32) []int32 {
			v[1] = 3
			return v
		}),
		"short out of order": forge(t, snap, "short", func(v []int32) []int32 {
			v[0], v[1] = v[1], v[0]
			return v
		}),
		"short misses a short string": forge(t, snap, "short", func(v []int32) []int32 { return v[1:] }),
		"short lists a signed string": forge(t, snap, "short", func(v []int32) []int32 {
			return slices.Sorted(slices.Values(append(v, signed[0])))
		}),
		"pivotal count ≠ τ+1": forge(t, snap, "piv.cnt", func(v []uint64) []uint64 {
			v[signed[0]]--
			v[signed[1]]++
			return v
		}),
		"absurd τ": forge(t, snap, "meta", func(v []uint64) []uint64 {
			v[1] = 1 << 40
			return v
		}),
	}
	for name, data := range forged {
		db, err := OpenSnapshot(bytes.NewReader(data))
		if !errors.Is(err, snapshot.ErrFormat) {
			t.Errorf("%s: OpenSnapshot = (%v, %v), want snapshot.ErrFormat", name, db != nil, err)
		}
	}
}

// FuzzOpenSnapshot: arbitrary bytes either fail to open with an error
// or yield a DB every entry point can search, Ring and Pivotal alike;
// never a panic.
func FuzzOpenSnapshot(f *testing.F) {
	_, snap, _ := snapshotFixture(f)
	f.Add(snap)
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := OpenSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		q := ""
		if db.Len() > 0 {
			q = db.String(0)
		}
		for _, opt := range []Options{PivotalOptions(), RingOptions(3)} {
			if _, _, err := db.Search(q, opt); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := db.SearchDist(q, opt); err != nil {
				t.Fatal(err)
			}
			if _, err := db.SearchRangeAppend(q, opt, 0, db.Len(), nil, new(Stats)); err != nil {
				t.Fatal(err)
			}
		}
	})
}
