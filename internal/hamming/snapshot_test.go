package hamming

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/snapshot"
)

// writeSnapshot packs db's section group into a container the way the
// engine packs one shard, and returns the file's bytes.
func writeSnapshot(t testing.TB, db *DB) []byte {
	t.Helper()
	b := snapshot.NewBuilder()
	if err := db.AppendSnapshot(b, ""); err != nil {
		t.Fatal(err)
	}
	return snapshotFile(t, b)
}

// snapshotFile serializes a section group as a container holding one
// hamming group.
func snapshotFile(t testing.TB, b *snapshot.Builder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf, "hamming"); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openSnapshot opens data and reads its hamming group the way the
// engine opens one shard.
func openSnapshot(data []byte) (*DB, error) {
	rd, err := snapshot.Open(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return OpenSnapshotAt(rd, "")
}

// snapshotFixture builds a DB over n clustered d-bit vectors in m parts,
// requiring every part to come out direct-addressed (or every part
// hashed), and returns it with its snapshot bytes.
func snapshotFixture(t testing.TB, d, m, n int, wantDirect bool) (*DB, []byte) {
	t.Helper()
	db, err := NewDB(clusteredVectors(rand.New(rand.NewSource(int64(d))), n, d), m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range db.index {
		if (db.index[i].offs != nil) != wantDirect {
			t.Fatalf("d=%d m=%d n=%d part %d: direct = %v, fixture wants %v", d, m, n, i, !wantDirect, wantDirect)
		}
	}
	return db, writeSnapshot(t, db)
}

// snapshotFixtures is one all-direct and one all-hashed fixture.
func snapshotFixtures(t testing.TB) (direct, hashed *DB, directSnap, hashedSnap []byte) {
	direct, directSnap = snapshotFixture(t, 100, 12, 300, true)
	hashed, hashedSnap = snapshotFixture(t, 128, 2, 300, false)
	return
}

// TestSnapshotLayoutsRoundTrip: both table layouts come back from a
// snapshot — the reopened DB holds the same arena and tables and
// searches identically — and two builds of the same corpus write the
// same bytes.
func TestSnapshotLayoutsRoundTrip(t *testing.T) {
	direct, hashed, directSnap, hashedSnap := snapshotFixtures(t)
	_, _, directSnap2, hashedSnap2 := snapshotFixtures(t)
	if !bytes.Equal(directSnap, directSnap2) || !bytes.Equal(hashedSnap, hashedSnap2) {
		t.Fatal("two builds of the same corpus wrote different snapshot bytes")
	}
	rng := rand.New(rand.NewSource(9))
	for _, c := range []struct {
		db   *DB
		snap []byte
	}{{direct, directSnap}, {hashed, hashedSnap}} {
		got, err := openSnapshot(c.snap)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.arena, c.db.arena) || !reflect.DeepEqual(got.index, c.db.index) ||
			!reflect.DeepEqual(got.box, c.db.box) || !slices.Equal(got.sample, c.db.sample) {
			t.Fatalf("d=%d: reopened DB differs structurally", c.db.Dim())
		}
		for trial := 0; trial < 10; trial++ {
			q := c.db.Vector(rng.Intn(c.db.Len())).Clone()
			q.Flip(rng.Intn(c.db.Dim()))
			for _, tau := range []int{0, 2, 8} {
				want, wst, _ := c.db.Search(q, tau, RingOptions(6))
				have, hst, err := got.Search(q, tau, RingOptions(6))
				if err != nil || !slices.Equal(have, want) || !statsEqual(hst, wst) {
					t.Fatalf("d=%d τ=%d: reopened search %v %+v (%v), want %v %+v", c.db.Dim(), tau, have, hst, err, want, wst)
				}
			}
		}
	}
}

// resnap rewrites a snapshot section by section with fresh checksums:
// edit returns a section's new payload, or false to drop it. It forges
// what the checksum layer cannot catch — a well-formed container whose
// contents are wrong.
func resnap(t testing.TB, snap []byte, edit func(name string, data []byte) ([]byte, bool)) []byte {
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
		if data, ok := edit(name, data); ok {
			b.Add(name, data)
		}
	}
	return snapshotFile(t, b)
}

// editI32s applies f to the decoded int32 payload of one section.
func editI32s(t testing.TB, snap []byte, section string, f func(v []int32) []int32) []byte {
	return resnap(t, snap, func(name string, data []byte) ([]byte, bool) {
		if name != section {
			return data, true
		}
		v, err := snapshot.BytesI32(data)
		if err != nil {
			t.Fatal(err)
		}
		return snapshot.I32Bytes(f(v)), true
	})
}

// storedIndexFile is testdata/stored-index.snap: a snapshot in the
// layout that also stored each part's table (idx.*), the cost-model
// sample and its deduplicated values (sv.*), written by that layout's
// WriteSnapshot for storedIndexCorpus. Its part 0 (8 bits) is hashed
// and its part 1 (7 bits) direct-addressed.
func storedIndexFile(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/stored-index.snap")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// storedIndexCorpus builds, fresh, the DB storedIndexFile was written
// from: 40 random 15-bit vectors in 2 parts.
func storedIndexCorpus(t testing.TB) *DB {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	vecs := make([]bitvec.Vector, 40)
	for i := range vecs {
		vecs[i] = bitvec.Random(rng, 15)
	}
	db, err := NewDB(vecs, 2)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// searchesLike fails unless got holds want's vectors and answers every
// probe — each vector with one bit flipped, at several τ and options —
// with want's ids and Stats.
func searchesLike(t *testing.T, name string, got, want *DB) {
	t.Helper()
	if got.Len() != want.Len() || got.Dim() != want.Dim() || got.M() != want.M() {
		t.Fatalf("%s: geometry (%d,%d,%d), want (%d,%d,%d)",
			name, got.Len(), got.Dim(), got.M(), want.Len(), want.Dim(), want.M())
	}
	opts := []Options{GPHOptions(), RingOptions(2), {ChainLength: 2, Alloc: AllocUniform},
		{ChainLength: 2, Alloc: AllocCostModel, NoIntegerReduction: true}}
	for id := 0; id < want.Len(); id++ {
		if !got.Vector(id).Equal(want.Vector(id)) {
			t.Fatalf("%s: vector %d differs", name, id)
		}
		q := want.Vector(id).Clone()
		q.Flip(id % want.Dim())
		for _, tau := range []int{0, 2, 4, 7} {
			for _, opt := range opts {
				have, hst, err := got.Search(q, tau, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				ids, st, _ := want.Search(q, tau, opt)
				if !slices.Equal(have, ids) || !reflect.DeepEqual(hst, st) {
					t.Fatalf("%s: q%d τ=%d opt=%+v: (%v, %+v), want (%v, %+v)", name, id, tau, opt, have, hst, ids, st)
				}
			}
		}
	}
}

// TestSnapshotOpensStoredIndexFile: a file written by the layout that
// stored the part tables still opens and answers like a fresh build of
// the same vectors.
func TestSnapshotOpensStoredIndexFile(t *testing.T) {
	db, err := openSnapshot(storedIndexFile(t))
	if err != nil {
		t.Fatalf("stored-index snapshot no longer opens: %v", err)
	}
	searchesLike(t, "stored-index.snap", db, storedIndexCorpus(t))
}

// TestSnapshotIgnoresStoredIndex: what a stored-index file holds besides
// its vectors is not trusted. Every forgery below has valid checksums
// and targets the idx.*, sample or sv.* sections — tables reversed,
// short, long, empty, non-monotone, out of range, mislabelled, or
// missing — and each opens and answers exactly like a fresh NewDB.
func TestSnapshotIgnoresStoredIndex(t *testing.T) {
	snap := storedIndexFile(t)
	if got := resnap(t, snap, func(_ string, d []byte) ([]byte, bool) { return d, true }); !bytes.Equal(got, snap) {
		t.Fatal("resnap without edits must reproduce the file")
	}
	forged := map[string][]byte{
		"reversed posting ids": editI32s(t, snap, "idx.ids", func(v []int32) []int32 {
			slices.Reverse(v)
			return v
		}),
		"no idx.offs": resnap(t, snap, func(name string, d []byte) ([]byte, bool) {
			return d, name != "idx.offs"
		}),
		"short offs": editI32s(t, snap, "idx.offs", func(v []int32) []int32 { return v[:len(v)-1] }),
		"long offs":  editI32s(t, snap, "idx.offs", func(v []int32) []int32 { return append(v, 40) }),
		"empty offs": editI32s(t, snap, "idx.offs", func(v []int32) []int32 { return nil }),
		"offs[0] != 0": editI32s(t, snap, "idx.offs", func(v []int32) []int32 {
			v[0] = 1
			return v
		}),
		"non-monotone offs": editI32s(t, snap, "idx.offs", func(v []int32) []int32 {
			i := slices.IndexFunc(v, func(x int32) bool { return x > 0 })
			v[i], v[i-1] = v[i-1], v[i]+1
			return v
		}),
		"negative offs": editI32s(t, snap, "idx.offs", func(v []int32) []int32 {
			v[1] = -1
			return v
		}),
		"last offs != n": editI32s(t, snap, "idx.offs", func(v []int32) []int32 {
			v[1<<7] = 39 // part 1 is 7 bits wide and the only direct part
			return v
		}),
		"posting id out of range": editI32s(t, snap, "idx.ids", func(v []int32) []int32 {
			v[17] = 40
			return v
		}),
		"hashed part marked direct": resnap(t, snap, func(name string, d []byte) ([]byte, bool) {
			if name == "idx.cap" {
				return snapshot.U64Bytes([]uint64{0, 0}), true
			}
			return d, true
		}),
		"sample value wider than its part": resnap(t, snap, func(name string, d []byte) ([]byte, bool) {
			if name == "sv.vals" {
				v, _ := snapshot.BytesU64(d)
				v[0] |= 1 << 40
				return snapshot.U64Bytes(v), true
			}
			return d, true
		}),
		"sample ids out of range": editI32s(t, snap, "sample", func(v []int32) []int32 {
			return []int32{-1, 1 << 30}
		}),
	}
	fresh := storedIndexCorpus(t)
	for name, data := range forged {
		t.Run(name, func(t *testing.T) {
			if bytes.Equal(data, snap) {
				t.Fatal("forgery left the file unchanged")
			}
			db, err := openSnapshot(data)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			searchesLike(t, name, db, fresh)
		})
	}
}

// TestSnapshotRejectsForgedTables: a container with valid checksums but
// a structurally wrong hamming section group — geometry that cannot be,
// or vectors that do not match it — fails with snapshot.ErrFormat
// instead of panicking now or misreading vectors later.
func TestSnapshotRejectsForgedTables(t *testing.T) {
	_, _, directSnap, _ := snapshotFixtures(t)
	withSection := func(section string, payload []byte) []byte {
		return resnap(t, directSnap, func(name string, d []byte) ([]byte, bool) {
			if name == section {
				return payload, true
			}
			return d, true
		})
	}
	forged := map[string][]byte{
		"absurd geometry":        withSection("meta", snapshot.U64Bytes([]uint64{1 << 62, 1 << 61, 300})),
		"short meta":             withSection("meta", snapshot.U64Bytes([]uint64{100, 12})),
		"no vectors":             withSection("meta", snapshot.U64Bytes([]uint64{100, 12, 0})),
		"part wider than a word": withSection("meta", snapshot.U64Bytes([]uint64{100, 1, 300})),
		"vecs length mismatch": resnap(t, directSnap, func(name string, d []byte) ([]byte, bool) {
			if name == "vecs" {
				return d[:len(d)-8], true
			}
			return d, true
		}),
	}
	for name, data := range forged {
		db, err := openSnapshot(data)
		if !errors.Is(err, snapshot.ErrFormat) {
			t.Errorf("%s: open = (%v, %v), want snapshot.ErrFormat", name, db != nil, err)
		}
	}
}

// FuzzOpenSnapshot: arbitrary bytes either fail to open with an error
// or yield a DB that can be searched; never a panic. The seeds are one
// direct-part and one hashed-part snapshot, kept to a few kilobytes so
// the engine's input minimisation stays cheap.
func FuzzOpenSnapshot(f *testing.F) {
	_, directSnap := snapshotFixture(f, 16, 2, 200, true)
	_, hashedSnap := snapshotFixture(f, 64, 1, 12, false)
	f.Add(directSnap)
	f.Add(hashedSnap)
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := openSnapshot(data)
		if err != nil {
			return
		}
		if _, _, err := db.Search(db.Vector(0), 2, RingOptions(6)); err != nil {
			t.Fatalf("opened snapshot cannot be searched: %v", err)
		}
	})
}
