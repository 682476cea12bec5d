package strdist

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

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
// strdist group.
func snapshotFile(t testing.TB, b *snapshot.Builder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf, "strdist"); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openSnapshot opens data and reads its strdist group the way the
// engine opens one shard.
func openSnapshot(data []byte) (*DB, error) {
	rd, err := snapshot.Open(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return OpenSnapshotAt(rd, "")
}

// snapshotFixture indexes 300 random strings at τ = 2, κ = 2 — a spread
// of lengths so the corpus holds short strings alongside full-signature
// ones — and returns the DB, its snapshot bytes and the rng that built
// it.
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
	return db, writeSnapshot(t, db), rng
}

// isShort reports whether db routes string id around the signature
// scheme (the short list) rather than indexing it.
func isShort(db *DB, id int) bool {
	_, ok := slices.BinarySearch(db.short, int32(id))
	return ok
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

// withSection replaces one section's payload, keeping every other.
func withSection(t testing.TB, snap []byte, section string, payload []byte) []byte {
	return resnap(t, snap, func(name string, d []byte) ([]byte, bool) {
		if name == section {
			return payload, true
		}
		return d, true
	})
}

// editU64s applies f to the decoded uint64 payload of one section.
func editU64s(t testing.TB, snap []byte, section string, f func(v []uint64) []uint64) []byte {
	t.Helper()
	rd, err := snapshot.Open(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	v, err := rd.U64s(section)
	if err != nil {
		t.Fatal(err)
	}
	return withSection(t, snap, section, snapshot.U64Bytes(f(v)))
}

// editI32s applies f to the decoded int32 payload of one section.
func editI32s(t testing.TB, snap []byte, section string, f func(v []int32) []int32) []byte {
	t.Helper()
	rd, err := snapshot.Open(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	v, err := rd.I32s(section)
	if err != nil {
		t.Fatal(err)
	}
	return withSection(t, snap, section, snapshot.I32Bytes(f(v)))
}

// storedIndexFile is testdata/stored-index.snap: a snapshot in the
// layout that also stored the derived tables (lastPrefix, strMasks,
// short, piv.*, pividx.*, preidx.*), written by that layout's
// WriteSnapshot for storedIndexCorpus.
func storedIndexFile(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/stored-index.snap")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// storedIndexCorpus builds, fresh, the DB storedIndexFile was written
// from: 40 strings over a 5-letter alphabet at κ = 2, τ = 2, nine of
// them short.
func storedIndexCorpus(t testing.TB) *DB {
	t.Helper()
	strs := corpus(rand.New(rand.NewSource(73)), 40, 2, 30, 5)
	dict, err := BuildGramDict(strs, 2)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDB(strs, dict, 2)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// searchesLike fails unless got holds want's strings and answers a
// search by every one of them, and by an edited copy of each, Pivotal
// and Ring alike, with want's ids and Stats.
func searchesLike(t *testing.T, got, want *DB) {
	t.Helper()
	if got.Len() != want.Len() || got.Tau() != want.Tau() {
		t.Fatalf("(%d strings, τ=%d), want (%d, %d)", got.Len(), got.Tau(), want.Len(), want.Tau())
	}
	mismatches := 0
	for id := 0; id < want.Len(); id++ {
		w := want.String(id)
		if got.String(id) != w {
			t.Fatalf("string %d differs", id)
		}
		for _, q := range []string{w, "e" + w[min(1, len(w)):]} {
			for _, opt := range []Options{PivotalOptions(), RingOptions(2), RingOptions(3)} {
				have, hst, err := got.Search(q, opt)
				if err != nil {
					t.Fatal(err)
				}
				ids, st, _ := want.Search(q, opt)
				if !reflect.DeepEqual(have, ids) || hst != st {
					if mismatches++; mismatches <= 3 {
						t.Errorf("q=%q opt=%+v: (%v, %+v), want (%v, %+v)", q, opt, have, hst, ids, st)
					}
				}
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d of %d searches differ from a fresh NewDB", mismatches, 6*want.Len())
	}
}

// TestSnapshotOpensStoredIndexFile: a file written by the layout that
// stored the derived tables still opens and answers like a fresh build
// of the same strings.
func TestSnapshotOpensStoredIndexFile(t *testing.T) {
	db, err := openSnapshot(storedIndexFile(t))
	if err != nil {
		t.Fatalf("stored-index snapshot no longer opens: %v", err)
	}
	searchesLike(t, db, storedIndexCorpus(t))
}

// TestSnapshotIgnoresStoredIndex: what a stored-index file holds besides
// its strings and gram order is not trusted. Every forgery below has
// valid checksums and targets a derived table — masks set to ones,
// anchors zeroed, the short list emptied, posting lists dropped — and
// each opens and answers exactly like a fresh NewDB.
func TestSnapshotIgnoresStoredIndex(t *testing.T) {
	snap := storedIndexFile(t)
	ones := func(v []uint64) []uint64 {
		for i := range v {
			v[i] = math.MaxUint64
		}
		return v
	}
	derived := func(name string) bool {
		return slices.Contains([]string{"lastPrefix", "strMasks", "short"}, name) ||
			strings.HasPrefix(name, "piv.") || strings.HasPrefix(name, "pividx.") || strings.HasPrefix(name, "preidx.")
	}
	forged := map[string][]byte{
		"every strMask all ones":  editU64s(t, snap, "strMasks", ones),
		"every piv.mask all ones": editU64s(t, snap, "piv.masks", ones),
		"lastPrefix zeroed": editI32s(t, snap, "lastPrefix", func(v []int32) []int32 {
			return make([]int32, len(v))
		}),
		"short emptied": withSection(t, snap, "short", nil),
		"pivotal postings dropped": resnap(t, snap, func(name string, d []byte) ([]byte, bool) {
			return d, !strings.HasPrefix(name, "pividx.")
		}),
		"prefix postings emptied": resnap(t, snap, func(name string, d []byte) ([]byte, bool) {
			switch name {
			case "preidx.keys", "preidx.post":
				return nil, true
			case "preidx.off":
				return snapshot.U64Bytes([]uint64{0}), true
			}
			return d, true
		}),
		"no derived sections": resnap(t, snap, func(name string, d []byte) ([]byte, bool) {
			return d, !derived(name)
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
			searchesLike(t, db, fresh)
		})
	}
}

// TestSnapshotRejectsMalformed: every structural defect in the sections
// a strdist group is read from fails with an error wrapping
// snapshot.ErrFormat — before a stored count sizes an allocation or a
// bad gram order reaches NewDB.
func TestSnapshotRejectsMalformed(t *testing.T) {
	db, snap, _ := snapshotFixture(t)
	size := uint64(db.dict.Size())
	if _, err := openSnapshot(resnap(t, snap, func(_ string, d []byte) ([]byte, bool) { return d, true })); err != nil {
		t.Fatalf("unedited resnapshot: %v", err)
	}
	meta := func(kappa, tau, n, dict uint64) []byte {
		return withSection(t, snap, "meta", snapshot.U64Bytes([]uint64{kappa, tau, n, dict}))
	}
	n := uint64(db.Len())
	forged := map[string][]byte{
		"short meta":      withSection(t, snap, "meta", snapshot.U64Bytes([]uint64{2, 2, n})),
		"κ = 0":           meta(0, 2, n, size),
		"τ > MaxInt32":    meta(2, math.MaxInt32+1, n, size),
		"n beyond data":   meta(2, 2, 1<<40, size),
		"dict size ≠ ids": meta(2, 2, n, size+1),
		"string offsets short": editU64s(t, snap, "strs.off", func(v []uint64) []uint64 {
			return v[:len(v)-1]
		}),
		"string offsets not monotone": editU64s(t, snap, "strs.off", func(v []uint64) []uint64 {
			i := slices.IndexFunc(v, func(o uint64) bool { return o > 0 })
			v[i-1], v[i] = v[i], v[i-1]
			return v
		}),
		"string offset past the bytes": editU64s(t, snap, "strs.off", func(v []uint64) []uint64 {
			v[1] = 1 << 62
			return v
		}),
		"gram bytes short": resnap(t, snap, func(name string, d []byte) ([]byte, bool) {
			if name == "dict.grams" {
				return d[:len(d)-2], true
			}
			return d, true
		}),
		"gram ids short": editI32s(t, snap, "dict.ids", func(v []int32) []int32 { return v[1:] }),
		"gram id duplicated": editI32s(t, snap, "dict.ids", func(v []int32) []int32 {
			v[1] = v[0]
			return v
		}),
		"negative gram id": editI32s(t, snap, "dict.ids", func(v []int32) []int32 {
			v[0] = -1
			return v
		}),
		"gram id ≥ size": editI32s(t, snap, "dict.ids", func(v []int32) []int32 {
			v[0] = int32(size)
			return v
		}),
		"duplicate grams": resnap(t, snap, func(name string, d []byte) ([]byte, bool) {
			if name == "dict.grams" {
				d = slices.Clone(d)
				copy(d[2:4], d[0:2])
			}
			return d, true
		}),
	}
	for name, data := range forged {
		t.Run(name, func(t *testing.T) {
			_, err := openSnapshot(data)
			if !errors.Is(err, snapshot.ErrFormat) {
				t.Errorf("err = %v, want one wrapping snapshot.ErrFormat", err)
			}
		})
	}
}

// FuzzOpenSnapshot: arbitrary bytes either fail to open with an error
// or yield a DB that answers a search by its first string exactly like
// SearchLinear, Pivotal and Ring alike, through every entry point;
// never a panic. The seeds are the committed kilobyte-sized
// stored-index file, so the engine's input minimisation stays cheap,
// and that file at the largest τ it may claim.
func FuzzOpenSnapshot(f *testing.F) {
	snap := storedIndexFile(f)
	f.Add(snap)
	f.Add(editU64s(f, snap, "meta", func(v []uint64) []uint64 {
		v[1] = math.MaxInt32
		return v
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := openSnapshot(data)
		if err != nil || db.Len() == 0 {
			return
		}
		q := db.String(0)
		want := db.SearchLinear(q)
		for _, opt := range []Options{PivotalOptions(), RingOptions(3)} {
			ids, _, err := db.Search(q, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(ids, want) {
				t.Fatalf("opt=%+v: Search = %v, SearchLinear = %v", opt, ids, want)
			}
			if _, _, _, err := db.SearchDist(q, opt); err != nil {
				t.Fatal(err)
			}
			got, err := db.SearchRangeAppend(q, opt, 0, db.Len(), nil, new(Stats))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, int64s(want)) {
				t.Fatalf("opt=%+v: SearchRangeAppend = %v, SearchLinear = %v", opt, got, want)
			}
		}
	})
}
