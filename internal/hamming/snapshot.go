package hamming

import (
	"fmt"
	"io"
	"math"

	"repro/internal/snapshot"
)

// SnapshotBackend tags whole-file hamming snapshots.
const SnapshotBackend = "hamming"

// WriteSnapshot writes the DB to w as a one-backend snapshot container,
// returning the bytes written. Only the build inputs are stored — the
// geometry and the vector arena — and OpenSnapshot rebuilds the part
// tables and the cost-model sample from them.
func (db *DB) WriteSnapshot(w io.Writer) (int64, error) {
	b := snapshot.NewBuilder()
	if err := db.AppendSnapshot(b, ""); err != nil {
		return 0, err
	}
	return b.WriteTo(w, SnapshotBackend)
}

// OpenSnapshot loads a DB from a snapshot written by WriteSnapshot.
func OpenSnapshot(r io.ReaderAt) (*DB, error) {
	rd, err := snapshot.Open(r)
	if err != nil {
		return nil, err
	}
	if err := rd.CheckBackend(SnapshotBackend); err != nil {
		return nil, err
	}
	return OpenSnapshotAt(rd, "")
}

// AppendSnapshot adds the DB's sections to b under the given name
// prefix: the geometry and the vector arena. Everything else — part
// tables, cost-model sample — is derived data that OpenSnapshotAt
// rebuilds, so a file cannot carry an index that disagrees with its
// vectors. The engine layer uses the prefix to pack one section group
// per shard into a single container.
func (db *DB) AppendSnapshot(b *snapshot.Builder, prefix string) error {
	b.AddU64s(prefix+"meta", []uint64{uint64(db.part.D), uint64(db.part.M()), uint64(db.n)})
	b.AddU64s(prefix+"vecs", db.arena)
	return nil
}

// OpenSnapshotAt reconstructs a DB from the section group under the
// given prefix of an already-opened container: it checks the geometry
// against the vectors actually present and builds the index from them
// exactly as NewDB does. Files written while the part tables were still
// stored open too; their idx.*, sample and sv.* sections are ignored. A
// group that is structurally wrong fails with an error wrapping
// snapshot.ErrFormat.
func OpenSnapshotAt(rd *snapshot.Reader, prefix string) (*DB, error) {
	fail := func(err error) (*DB, error) {
		return nil, fmt.Errorf("hamming: snapshot %q: %w", prefix, err)
	}
	bad := func(format string, args ...any) (*DB, error) {
		return fail(fmt.Errorf("%w: "+format, append([]any{snapshot.ErrFormat}, args...)...))
	}

	meta, err := rd.U64s(prefix + "meta")
	if err != nil {
		return fail(err)
	}
	if len(meta) != 3 {
		return bad("meta has %d fields, want 3", len(meta))
	}
	// Ids are int32, and a vector has at least one word per 64
	// dimensions, so neither count can legitimately exceed this.
	if meta[0] > math.MaxInt32 || meta[1] > meta[0] || meta[2] > math.MaxInt32 {
		return bad("implausible geometry d=%d m=%d n=%d", meta[0], meta[1], meta[2])
	}
	d, m, n := int(meta[0]), int(meta[1]), int(meta[2])
	if checkParts(d, m) != nil || n < 1 {
		return bad("implausible geometry d=%d m=%d n=%d", d, m, n)
	}
	words, err := rd.U64s(prefix + "vecs")
	if err != nil {
		return fail(err)
	}
	wpv := (d + 63) / 64
	if len(words)%wpv != 0 || len(words)/wpv != n {
		return bad("vecs has %d words, want %d vectors of %d", len(words), n, wpv)
	}
	if r := uint(d % 64); r != 0 {
		// Whole-word kernels rely on zero bits beyond the dimension.
		for i := wpv - 1; i < len(words); i += wpv {
			words[i] &= 1<<r - 1
		}
	}
	return build(words, d, m), nil
}
