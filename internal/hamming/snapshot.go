package hamming

import (
	"fmt"
	"io"
	"math"

	"repro/internal/bitvec"
	"repro/internal/parallel"
	"repro/internal/snapshot"
)

// SnapshotBackend tags whole-file hamming snapshots.
const SnapshotBackend = "hamming"

// WriteSnapshot writes the fully built index to w as a one-backend
// snapshot container, returning the bytes written. The snapshot
// round-trips everything NewDB computed — the vector arena, each part's
// table in whichever layout it was built (direct or hashed), and the
// cost-model sample values — so OpenSnapshot skips construction
// entirely.
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
// prefix. The engine layer uses the prefix to pack one section group
// per shard into a single container.
func (db *DB) AppendSnapshot(b *snapshot.Builder, prefix string) error {
	m := db.part.M()
	b.AddU64s(prefix+"meta", []uint64{uint64(db.part.D), uint64(m), uint64(db.n)})
	b.AddU64s(prefix+"vecs", db.arena)

	// The per-part flat tables are persisted verbatim: hashed-table
	// capacities (0 marks a direct part), the concatenated slot keys and
	// locations of the hashed parts, the concatenated offset tables of
	// the direct parts, cumulative posting-region offsets, and the
	// concatenated posting ids. NewDB builds the tables
	// deterministically, so the bytes are too.
	caps := make([]uint64, m)
	idLens := make([]int, m)
	var keys, loc []uint64
	var offs, ids []int32
	for i := range db.index {
		p := &db.index[i]
		caps[i] = uint64(len(p.loc))
		idLens[i] = len(p.ids)
		keys = append(keys, p.keys...)
		loc = append(loc, p.loc...)
		offs = append(offs, p.offs...)
		ids = append(ids, p.ids...)
	}
	b.AddU64s(prefix+"idx.cap", caps)
	b.AddU64s(prefix+"idx.keys", keys)
	b.AddU64s(prefix+"idx.loc", loc)
	b.AddI32s(prefix+"idx.offs", offs)
	b.AddU64s(prefix+"idx.idoff", snapshot.Offsets(idLens))
	b.AddI32s(prefix+"idx.ids", ids)

	b.AddI32s(prefix+"sample", db.sample)
	svCnt := make([]uint64, m)
	var svVals []uint64
	var svCnts []int32
	for i := 0; i < m; i++ {
		svCnt[i] = uint64(len(db.sampleVals[i]))
		svVals = append(svVals, db.sampleVals[i]...)
		svCnts = append(svCnts, db.sampleCnts[i]...)
	}
	b.AddU64s(prefix+"sv.cnt", svCnt)
	b.AddU64s(prefix+"sv.vals", svVals)
	b.AddI32s(prefix+"sv.cnts", svCnts)
	return nil
}

// OpenSnapshotAt reconstructs a DB from the section group under the
// given prefix of an already-opened container. Every stored length is
// checked against the data actually present before it sizes anything,
// and a group that is structurally wrong — including one in the layout
// that predates direct-addressed parts — fails with an error wrapping
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
	if m < 1 || (d+m-1)/m > 64 || n < 1 {
		return bad("implausible geometry d=%d m=%d n=%d", d, m, n)
	}
	if !rd.Has(prefix + "idx.offs") {
		return bad("no idx.offs section: written before direct-addressed parts, rebuild the snapshot")
	}

	// The remaining sections are independent, and checksumming them is
	// the bulk of an open, so load them in parallel (Reader is safe for
	// concurrent section reads).
	var (
		words, caps, keys, loc, idoff, svCnt, svVals []uint64
		offs, ids, sample, svCnts                    []int32
	)
	loads := []func() error{
		func() (err error) { words, err = rd.U64s(prefix + "vecs"); return },
		func() (err error) { caps, err = rd.U64s(prefix + "idx.cap"); return },
		func() (err error) { keys, err = rd.U64s(prefix + "idx.keys"); return },
		func() (err error) { loc, err = rd.U64s(prefix + "idx.loc"); return },
		func() (err error) { offs, err = rd.I32s(prefix + "idx.offs"); return },
		func() (err error) { idoff, err = rd.U64s(prefix + "idx.idoff"); return },
		func() (err error) { ids, err = rd.I32s(prefix + "idx.ids"); return },
		func() (err error) { sample, err = rd.I32s(prefix + "sample"); return },
		func() (err error) { svCnt, err = rd.U64s(prefix + "sv.cnt"); return },
		func() (err error) { svVals, err = rd.U64s(prefix + "sv.vals"); return },
		func() (err error) { svCnts, err = rd.I32s(prefix + "sv.cnts"); return },
	}
	if err := parallel.ForEachErr(len(loads), 0, func(i int) error { return loads[i]() }); err != nil {
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
	if len(caps) != m || len(idoff) != m+1 || len(svCnt) != m {
		return bad("index has %d capacities, %d id offsets and %d sample counts, want %d parts",
			len(caps), len(idoff), len(svCnt), m)
	}
	if len(keys) != len(loc) {
		return bad("index regions have %d keys and %d locations", len(keys), len(loc))
	}
	part := bitvec.NewEqualPartitioning(d, m)

	// A part with capacity 0 is direct-addressed and owns the next
	// (1<<w)+1 entries of offs; any other owns the next cap slots of
	// keys and loc. Regions are sliced, never sized, from these counts.
	index := make([]partIndex, m)
	kpos, opos := uint64(0), 0
	for i := 0; i < m; i++ {
		lo, hi := idoff[i], idoff[i+1]
		if lo > hi || hi > uint64(len(ids)) {
			return bad("posting offsets not monotone at part %d", i)
		}
		p := partIndex{ids: ids[lo:hi:hi]}
		w := part.Width(i)
		if c := caps[i]; c != 0 {
			if c > uint64(len(keys))-kpos {
				return bad("part %d hashed table overruns its region", i)
			}
			p.keys, p.loc = keys[kpos:kpos+c:kpos+c], loc[kpos:kpos+c:kpos+c]
			kpos += c
		} else {
			if w > maxDirectWidth || (1<<w)+1 > len(offs)-opos {
				return bad("part %d direct table overruns its region", i)
			}
			end := opos + (1 << w) + 1
			p.offs = offs[opos:end:end]
			opos = end
		}
		if !p.validate(w, n) {
			return bad("part %d index table is malformed", i)
		}
		index[i] = p
	}
	if kpos != uint64(len(keys)) || opos != len(offs) || idoff[m] != uint64(len(ids)) {
		return bad("index regions have trailing data")
	}

	if len(svVals) != len(svCnts) {
		return bad("sample-value sizes disagree: %d vals, %d cnts", len(svVals), len(svCnts))
	}
	db := &DB{
		arena:      words,
		n:          n,
		wpv:        wpv,
		part:       part,
		box:        newBoxes(part),
		index:      index,
		sample:     sample,
		sampleVals: make([][]uint64, m),
		sampleCnts: make([][]int32, m),
	}
	pos := uint64(0)
	for i := 0; i < m; i++ {
		c := svCnt[i]
		if c > uint64(len(svVals))-pos {
			return bad("sample-value counts overflow their region")
		}
		db.sampleVals[i] = svVals[pos : pos+c : pos+c]
		db.sampleCnts[i] = svCnts[pos : pos+c : pos+c]
		pos += c
		// A value wider than its part would index past the histogram.
		for _, v := range db.sampleVals[i] {
			if v&^db.box[i].mask != 0 {
				return bad("part %d sample value exceeds the part width", i)
			}
		}
	}
	if pos != uint64(len(svVals)) {
		return bad("sample-value region has %d trailing values", uint64(len(svVals))-pos)
	}
	db.initRuntime()
	return db, nil
}
