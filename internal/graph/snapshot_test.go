package graph

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"reflect"
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
// graph group.
func snapshotFile(t testing.TB, b *snapshot.Builder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf, "graph"); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openSnapshot opens data and reads its graph group the way the
// engine opens one shard.
func openSnapshot(data []byte) (*DB, error) {
	rd, err := snapshot.Open(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return OpenSnapshotAt(rd, "")
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
func editU64s(t testing.TB, snap []byte, section string, f func(v []uint64)) []byte {
	t.Helper()
	rd, err := snapshot.Open(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	v, err := rd.U64s(section)
	if err != nil {
		t.Fatal(err)
	}
	f(v)
	return withSection(t, snap, section, snapshot.U64Bytes(v))
}

// editI32s applies f to the decoded int32 payload of one section.
func editI32s(t testing.TB, snap []byte, section string, f func(v []int32)) []byte {
	t.Helper()
	rd, err := snapshot.Open(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	v, err := rd.I32s(section)
	if err != nil {
		t.Fatal(err)
	}
	f(v)
	return withSection(t, snap, section, snapshot.I32Bytes(v))
}

// storedIndexFile is testdata/stored-index.snap: a snapshot in the
// layout that also stored every graph's τ+1 parts (p.* sections),
// written by that layout's WriteSnapshot for storedIndexCorpus.
func storedIndexFile(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/stored-index.snap")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// storedIndexCorpus builds, fresh, the DB storedIndexFile was written
// from: 12 molecule-like graphs at τ = 2.
func storedIndexCorpus(t testing.TB) *DB {
	t.Helper()
	db, err := NewDB(moleculeCorpus(rand.New(rand.NewSource(71)), 12, 5, 10, 6, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// searchesLike fails unless got holds want's graphs and answers a
// search by every one of them, Pars and Ring, with want's ids and
// Stats.
func searchesLike(t *testing.T, got, want *DB) {
	t.Helper()
	if got.Len() != want.Len() || got.Tau() != want.Tau() {
		t.Fatalf("(%d graphs, τ=%d), want (%d, %d)", got.Len(), got.Tau(), want.Len(), want.Tau())
	}
	for id := 0; id < want.Len(); id++ {
		g, w := got.Graph(id), want.Graph(id)
		if g.N() != w.N() || !reflect.DeepEqual(g.vlab, w.vlab) || !reflect.DeepEqual(g.Edges(), w.Edges()) {
			t.Fatalf("graph %d differs", id)
		}
		for _, opt := range []Options{ParsOptions(), RingOptions(2), RingOptions(3)} {
			have, hst, err := got.Search(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			ids, st, _ := want.Search(w, opt)
			if !reflect.DeepEqual(have, ids) || hst != st {
				t.Fatalf("q%d opt=%+v: (%v, %+v), want (%v, %+v)", id, opt, have, hst, ids, st)
			}
		}
	}
}

// TestSnapshotOpensStoredIndexFile: a file written by the layout that
// stored the parts still opens and answers like a fresh build of the
// same graphs.
func TestSnapshotOpensStoredIndexFile(t *testing.T) {
	db, err := openSnapshot(storedIndexFile(t))
	if err != nil {
		t.Fatalf("stored-index snapshot no longer opens: %v", err)
	}
	searchesLike(t, db, storedIndexCorpus(t))
}

// TestSnapshotIgnoresStoredIndex: the p.* sections of a stored-index
// file are not trusted. Every forgery below has valid checksums — parts
// relabelled, emptied, mis-sized or missing — and each opens and
// answers exactly like a fresh NewDB.
func TestSnapshotIgnoresStoredIndex(t *testing.T) {
	snap := storedIndexFile(t)
	forged := map[string][]byte{
		"every part vertex labelled 999": editI32s(t, snap, "p.vlab", func(v []int32) {
			for i := range v {
				v[i] = 999
			}
		}),
		"part edges dropped": resnap(t, snap, func(name string, d []byte) ([]byte, bool) {
			switch name {
			case "p.edges":
				return snapshot.I32Bytes(nil), true
			case "p.eoff":
				return snapshot.U64Bytes(make([]uint64, 12*3+1)), true
			}
			return d, true
		}),
		"part vertex offsets short": withSection(t, snap, "p.voff", snapshot.U64Bytes([]uint64{0, 1})),
		"no p.* sections": resnap(t, snap, func(name string, d []byte) ([]byte, bool) {
			return d, !strings.HasPrefix(name, "p.")
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

// TestSnapshotRejectsMalformed: every structural defect in the graph
// sections fails with an error wrapping snapshot.ErrFormat — before a
// stored count or offset sizes an allocation or indexes a payload.
func TestSnapshotRejectsMalformed(t *testing.T) {
	db, err := NewDB(moleculeCorpus(rand.New(rand.NewSource(5)), 4, 5, 8, 4, 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	snap := writeSnapshot(t, db)
	// huge is one graph of MaxVertices+1 isolated vertices.
	huge := snapshot.NewBuilder()
	huge.AddU64s("meta", []uint64{1, 1})
	huge.AddU64s("g.voff", []uint64{0, MaxVertices + 1})
	huge.AddI32s("g.vlab", make([]int32, MaxVertices+1))
	huge.AddU64s("g.eoff", []uint64{0, 0})
	huge.AddI32s("g.edges", nil)
	forged := map[string][]byte{
		"short meta":        withSection(t, snap, "meta", snapshot.U64Bytes([]uint64{1})),
		"τ = 2^62":          withSection(t, snap, "meta", snapshot.U64Bytes([]uint64{1 << 62, 4})),
		"τ above MaxTau":    withSection(t, snap, "meta", snapshot.U64Bytes([]uint64{MaxTau + 1, 4})),
		"count beyond data": withSection(t, snap, "meta", snapshot.U64Bytes([]uint64{1, 1 << 40})),
		"count short":       withSection(t, snap, "meta", snapshot.U64Bytes([]uint64{1, 3})),
		"edge offset 2^62":  editU64s(t, snap, "g.eoff", func(v []uint64) { v[1] = 1 << 62 }),
		"edge offsets not monotone": editU64s(t, snap, "g.eoff", func(v []uint64) {
			v[1], v[2] = v[2], v[1]
		}),
		"vertex offsets not monotone": editU64s(t, snap, "g.voff", func(v []uint64) {
			v[1], v[2] = v[2], v[1]
		}),
		"edges not triples": resnap(t, snap, func(name string, d []byte) ([]byte, bool) {
			if name == "g.edges" {
				return d[:len(d)-4], true
			}
			return d, true
		}),
		"self loop": editI32s(t, snap, "g.edges", func(v []int32) { v[0], v[1] = 0, 0 }),
		"edge vertex out of range": editI32s(t, snap, "g.edges", func(v []int32) {
			v[0], v[1] = 0, 1<<20
		}),
		"graph above MaxVertices": snapshotFile(t, huge),
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
// or yield a DB that answers a Pars and a Ring search by its first
// graph; never a panic. The seed is a kilobyte-sized snapshot, so the
// engine's input minimisation stays cheap.
func FuzzOpenSnapshot(f *testing.F) {
	db, err := NewDB(moleculeCorpus(rand.New(rand.NewSource(9)), 6, 4, 7, 4, 2), 2)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(writeSnapshot(f, db))
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := openSnapshot(data)
		if err != nil || db.Len() == 0 {
			return
		}
		for _, opt := range []Options{ParsOptions(), RingOptions(db.Tau())} {
			if _, _, err := db.Search(db.Graph(0), opt); err != nil {
				t.Fatalf("opened snapshot cannot be searched: %v", err)
			}
		}
	})
}
