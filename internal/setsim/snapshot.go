package setsim

import (
	"fmt"
	"math"

	"repro/internal/snapshot"
	"repro/internal/tokenset"
)

// AppendSnapshot adds the DB's sections to b under the given name
// prefix: the configuration and the sets themselves. Everything else —
// prefix lengths, postings — is derived data that OpenSnapshotAt
// rebuilds, so a file cannot carry an index that disagrees with its
// sets. A DB with a custom Class function cannot be snapshotted: the
// function is code, not data, and a reload with a different assignment
// would silently index nothing usefully.
func (db *PKWiseDB) AppendSnapshot(b *snapshot.Builder, prefix string) error {
	if db.cfg.Class != nil {
		return fmt.Errorf("setsim: cannot snapshot an index with a custom Class function")
	}
	n := len(db.sets)
	b.AddU64s(prefix+"meta", []uint64{
		uint64(db.cfg.Measure),
		uint64(db.cfg.M),
		uint64(n),
		math.Float64bits(db.cfg.Tau),
	})
	lens := make([]int, n)
	total := 0
	for i, s := range db.sets {
		lens[i] = len(s)
		total += len(s)
	}
	toks := make([]int32, 0, total)
	for _, s := range db.sets {
		toks = append(toks, s...)
	}
	b.AddU64s(prefix+"sets.off", snapshot.Offsets(lens))
	b.AddI32s(prefix+"sets.toks", toks)
	return nil
}

// OpenSnapshotAt reconstructs a PKWiseDB from the section group under
// the given prefix of an already-opened container: it validates the
// stored sets and builds the index from them exactly as NewPKWiseDB
// does. Files written before the index stopped being stored still open;
// their px and post.* sections are ignored. A group that is
// structurally wrong fails with an error wrapping snapshot.ErrFormat.
func OpenSnapshotAt(rd *snapshot.Reader, prefix string) (*PKWiseDB, error) {
	fail := func(err error) (*PKWiseDB, error) {
		return nil, fmt.Errorf("setsim: snapshot %q: %w", prefix, err)
	}
	bad := func(format string, args ...any) (*PKWiseDB, error) {
		return fail(fmt.Errorf("%w: "+format, append([]any{snapshot.ErrFormat}, args...)...))
	}

	meta, err := rd.U64s(prefix + "meta")
	if err != nil {
		return fail(err)
	}
	if len(meta) != 4 {
		return bad("meta has %d fields, want 4", len(meta))
	}
	cfg := Config{
		Measure: Measure(meta[0]),
		M:       int(meta[1]),
		Tau:     math.Float64frombits(meta[3]),
	}
	if err := cfg.validate(); err != nil {
		return bad("%v", err)
	}

	off, err := rd.U64s(prefix + "sets.off")
	if err != nil {
		return fail(err)
	}
	toks, err := rd.I32s(prefix + "sets.toks")
	if err != nil {
		return fail(err)
	}
	// The set count sizes nothing until the offsets actually present
	// agree with it.
	if len(off) == 0 || meta[2] != uint64(len(off)-1) || off[len(off)-1] != uint64(len(toks)) {
		return bad("set offsets disagree: %d offsets for %d sets over %d tokens",
			len(off), meta[2], len(toks))
	}
	sets := make([]tokenset.Set, len(off)-1)
	for i := range sets {
		lo, hi := off[i], off[i+1]
		if lo > hi || hi > uint64(len(toks)) {
			return bad("set offsets not monotone at %d", i)
		}
		sets[i] = tokenset.Set(toks[lo:hi:hi])
	}
	if err := tokenset.Validate(sets); err != nil {
		return bad("%v", err)
	}
	db, err := build(sets, cfg)
	if err != nil {
		return fail(err)
	}
	return db, nil
}
