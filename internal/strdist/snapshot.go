package strdist

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"

	"repro/internal/snapshot"
)

// AppendSnapshot adds the DB's sections to b under the given name
// prefix: the geometry, the strings and the gram order. Everything
// else — pivotal signatures, masks, both inverted indexes — is derived
// data that OpenSnapshotAt rebuilds, so a file cannot carry an index
// that disagrees with its strings. The engine layer uses the prefix to
// pack one section group per shard into a single container.
func (db *DB) AppendSnapshot(b *snapshot.Builder, prefix string) error {
	b.AddU64s(prefix+"meta", []uint64{
		uint64(db.kappa), uint64(db.tau), uint64(len(db.strs)), uint64(len(db.dict.ids)),
	})

	strLens := make([]int, len(db.strs))
	for i, s := range db.strs {
		strLens[i] = len(s)
	}
	b.AddU64s(prefix+"strs.off", snapshot.Offsets(strLens))
	b.Add(prefix+"strs.bytes", []byte(strings.Join(db.strs, "")))

	// The dictionary flattens to the grams in lexicographic order (all
	// of length κ, so plain concatenation) with a parallel id array.
	grams := slices.Sorted(maps.Keys(db.dict.ids))
	gramIDs := make([]int32, len(grams))
	for i, g := range grams {
		gramIDs[i] = db.dict.ids[g]
	}
	b.Add(prefix+"dict.grams", []byte(strings.Join(grams, "")))
	b.AddI32s(prefix+"dict.ids", gramIDs)
	return nil
}

// OpenSnapshotAt reconstructs a DB from the section group under the
// given prefix of an already-opened container: it checks the geometry
// against the strings and grams actually present and builds the index
// from them exactly as NewDB does. Files written while the derived
// tables were still stored open too; their signature, mask and posting
// sections are ignored. A group that is structurally wrong fails with
// an error wrapping snapshot.ErrFormat.
func OpenSnapshotAt(rd *snapshot.Reader, prefix string) (*DB, error) {
	fail := func(err error) (*DB, error) {
		return nil, fmt.Errorf("strdist: snapshot %q: %w", prefix, err)
	}
	bad := func(format string, args ...any) (*DB, error) {
		return fail(fmt.Errorf("%w: "+format, append([]any{snapshot.ErrFormat}, args...)...))
	}

	meta, err := rd.U64s(prefix + "meta")
	if err != nil {
		return fail(err)
	}
	if len(meta) != 4 {
		return bad("meta has %d fields, want 4", len(meta))
	}
	// Ids and positions are int32, so no field beyond that range
	// describes an index NewDB could have built.
	if meta[0] < 1 || slices.Max(meta) > math.MaxInt32 {
		return bad("implausible geometry κ=%d τ=%d n=%d dict=%d", meta[0], meta[1], meta[2], meta[3])
	}
	kappa, tau, n, dictSize := int(meta[0]), int(meta[1]), int(meta[2]), int(meta[3])

	soff, err := rd.U64s(prefix + "strs.off")
	if err != nil {
		return fail(err)
	}
	sbytes, err := rd.Section(prefix + "strs.bytes")
	if err != nil {
		return fail(err)
	}
	if len(soff) != n+1 || int(soff[n]) != len(sbytes) {
		return bad("string offsets disagree")
	}
	strs := make([]string, n)
	for i := range strs {
		lo, hi := soff[i], soff[i+1]
		if lo > hi || hi > uint64(len(sbytes)) {
			return bad("string offsets not monotone at %d", i)
		}
		strs[i] = string(sbytes[lo:hi])
	}

	gramBytes, err := rd.Section(prefix + "dict.grams")
	if err != nil {
		return fail(err)
	}
	gramIDs, err := rd.I32s(prefix + "dict.ids")
	if err != nil {
		return fail(err)
	}
	if len(gramBytes) != dictSize*kappa || len(gramIDs) != dictSize {
		return bad("dictionary sizes disagree: %d gram bytes, %d ids, size %d",
			len(gramBytes), len(gramIDs), dictSize)
	}
	// The ids must be a permutation of [0, size): order[id] is the gram
	// holding that rank in the global order.
	order := make([]string, dictSize)
	for i, id := range gramIDs {
		if id < 0 || int(id) >= dictSize || order[id] != "" {
			return bad("gram id %d is negative, ≥ %d or repeated", id, dictSize)
		}
		order[id] = string(gramBytes[i*kappa : (i+1)*kappa])
	}
	dict, err := BuildGramDictFromOrder(order, kappa)
	if err != nil {
		return fail(fmt.Errorf("%w: %w", snapshot.ErrFormat, err))
	}
	return NewDB(strs, dict, tau)
}
