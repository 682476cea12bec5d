package strdist

import (
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/snapshot"
)

// SnapshotBackend tags whole-file strdist snapshots.
const SnapshotBackend = "strdist"

// WriteSnapshot writes the fully built index — strings, gram
// dictionary, pivotal signatures and both inverted indexes — to w as a
// one-backend snapshot container, returning the bytes written.
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
// prefix.
func (db *DB) AppendSnapshot(b *snapshot.Builder, prefix string) error {
	n := len(db.strs)
	b.AddU64s(prefix+"meta", []uint64{
		uint64(db.kappa), uint64(db.tau), uint64(n), uint64(len(db.dict.ids)),
	})

	strLens := make([]int, n)
	total := 0
	for i, s := range db.strs {
		strLens[i] = len(s)
		total += len(s)
	}
	strBytes := make([]byte, 0, total)
	for _, s := range db.strs {
		strBytes = append(strBytes, s...)
	}
	b.AddU64s(prefix+"strs.off", snapshot.Offsets(strLens))
	b.Add(prefix+"strs.bytes", strBytes)

	// The dictionary flattens to the grams in lexicographic order (all
	// of length κ, so plain concatenation) with a parallel id array.
	grams := make([]string, 0, len(db.dict.ids))
	for g := range db.dict.ids {
		grams = append(grams, g)
	}
	slices.Sort(grams)
	gramBytes := make([]byte, 0, len(grams)*db.kappa)
	gramIDs := make([]int32, len(grams))
	for i, g := range grams {
		gramBytes = append(gramBytes, g...)
		gramIDs[i] = db.dict.ids[g]
	}
	b.Add(prefix+"dict.grams", gramBytes)
	b.AddI32s(prefix+"dict.ids", gramIDs)

	b.AddI32s(prefix+"lastPrefix", db.lastPrefix)
	b.AddU64s(prefix+"strMasks", db.strMasks)
	b.AddI32s(prefix+"short", db.short)

	// Pivotal signatures: a zero count marks a short string whose
	// pivotal slice is nil (not empty) — Search distinguishes the two.
	pivCnt := make([]uint64, n)
	var pivGrams []int32
	var pivMasks []uint64
	for id, pv := range db.pivotal {
		pivCnt[id] = uint64(len(pv))
		for _, g := range pv {
			pivGrams = append(pivGrams, g.ID, g.Pos)
		}
		pivMasks = append(pivMasks, db.pivMasks[id]...)
	}
	b.AddU64s(prefix+"piv.cnt", pivCnt)
	b.AddI32s(prefix+"piv.grams", pivGrams)
	b.AddU64s(prefix+"piv.masks", pivMasks)

	// Both inverted indexes flatten the same way as the other backends:
	// sorted keys, cumulative offsets, concatenated fixed-width records.
	pk, po, pp := flattenPostings(db.pivIdx, func(p pivPosting) []int32 {
		return []int32{p.id, int32(p.box), p.pos}
	})
	b.AddI32s(prefix+"pividx.keys", pk)
	b.AddU64s(prefix+"pividx.off", po)
	b.AddI32s(prefix+"pividx.post", pp)
	rk, ro, rp := flattenPostings(db.preIdx, func(p prePosting) []int32 {
		return []int32{p.id, p.pos}
	})
	b.AddI32s(prefix+"preidx.keys", rk)
	b.AddU64s(prefix+"preidx.off", ro)
	b.AddI32s(prefix+"preidx.post", rp)
	return nil
}

func flattenPostings[P any](idx map[int32][]P, rec func(P) []int32) (keys []int32, off []uint64, post []int32) {
	keys = make([]int32, 0, len(idx))
	for k := range idx {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	lens := make([]int, len(keys))
	for i, k := range keys {
		lens[i] = len(idx[k])
		for _, p := range idx[k] {
			post = append(post, rec(p)...)
		}
	}
	return keys, snapshot.Offsets(lens), post
}

// OpenSnapshotAt reconstructs a DB from the section group under the
// given prefix of an already-opened container. Every id, position and
// box the search indexes with is range-checked here, so a group that is
// structurally wrong fails with an error wrapping snapshot.ErrFormat
// instead of panicking in a later Search.
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
	kappa, tau, n, dictSize := int(meta[0]), int(meta[1]), int(meta[2]), int(meta[3])
	// Positions are int32, so κ and τ beyond that range are no index
	// NewDB could have built.
	if kappa < 1 || kappa > math.MaxInt32 || tau < 0 || tau > math.MaxInt32 || n < 0 || dictSize < 0 {
		return bad("implausible geometry κ=%d τ=%d n=%d dict=%d", kappa, tau, n, dictSize)
	}

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
	dict := &GramDict{kappa: kappa, ids: make(map[string]int32, dictSize)}
	for i := 0; i < dictSize; i++ {
		dict.ids[string(gramBytes[i*kappa:(i+1)*kappa])] = gramIDs[i]
	}
	if len(dict.ids) != dictSize {
		return bad("dictionary holds duplicate grams")
	}

	lastPrefix, err := rd.I32s(prefix + "lastPrefix")
	if err != nil {
		return fail(err)
	}
	strMasks, err := rd.U64s(prefix + "strMasks")
	if err != nil {
		return fail(err)
	}
	short, err := rd.I32s(prefix + "short")
	if err != nil {
		return fail(err)
	}
	if len(lastPrefix) != n || len(strMasks) != n {
		return bad("per-string arrays disagree with n=%d", n)
	}

	pivCnt, err := rd.U64s(prefix + "piv.cnt")
	if err != nil {
		return fail(err)
	}
	pivGrams, err := rd.I32s(prefix + "piv.grams")
	if err != nil {
		return fail(err)
	}
	pivMasks, err := rd.U64s(prefix + "piv.masks")
	if err != nil {
		return fail(err)
	}
	if len(pivCnt) != n {
		return bad("piv.cnt has %d entries, want %d", len(pivCnt), n)
	}
	if i := slices.IndexFunc(pivCnt, func(c uint64) bool { return c != 0 && c != uint64(tau+1) }); i >= 0 {
		return bad("string %d has %d pivotal grams, want 0 or %d", i, pivCnt[i], tau+1)
	}
	totalPiv := 0
	for _, c := range pivCnt {
		totalPiv += int(c)
	}
	if len(pivGrams) != 2*totalPiv || len(pivMasks) != totalPiv {
		return bad("pivotal regions disagree: %d gram ints, %d masks, count %d",
			len(pivGrams), len(pivMasks), totalPiv)
	}
	pivotal := make([][]Gram, n)
	masks := make([][]uint64, n)
	pos, next := 0, 0
	for id, c := range pivCnt {
		cnt := int(c)
		if cnt == 0 {
			// nil, not empty: marks a short string. short must list
			// exactly these ids, ascending.
			if next == len(short) || int(short[next]) != id {
				return bad("short disagrees with piv.cnt at string %d", id)
			}
			next++
			continue
		}
		pv := make([]Gram, cnt)
		for j := range pv {
			pv[j] = Gram{ID: pivGrams[2*(pos+j)], Pos: pivGrams[2*(pos+j)+1]}
			if pv[j].Pos < 0 || int(pv[j].Pos)+kappa > len(strs[id]) {
				return bad("string %d: pivotal gram at %d outside its %d bytes", id, pv[j].Pos, len(strs[id]))
			}
		}
		pivotal[id] = pv
		masks[id] = pivMasks[pos : pos+cnt : pos+cnt]
		pos += cnt
	}
	if next != len(short) {
		return bad("short lists %d ids with pivotal grams, out of order or out of [0, %d)", len(short)-next, n)
	}
	// Every posting names a string with a pivotal signature (case A
	// boxes read it), and ids ascend within a list (windowPiv /
	// windowPre binary-search on that order).
	signed := func(id int32) bool { return id >= 0 && int(id) < n && pivotal[id] != nil }

	pivIdx, err := readPostings(rd, prefix+"pividx", 3, func(r []int32) bool {
		return signed(r[0]) && r[1] >= 0 && int(r[1]) <= tau
	}, func(r []int32) pivPosting {
		return pivPosting{id: r[0], box: int16(r[1]), pos: r[2]}
	})
	if err != nil {
		return fail(err)
	}
	preIdx, err := readPostings(rd, prefix+"preidx", 2, func(r []int32) bool {
		return signed(r[0])
	}, func(r []int32) prePosting {
		return prePosting{id: r[0], pos: r[1]}
	})
	if err != nil {
		return fail(err)
	}

	db := &DB{
		kappa: kappa, tau: tau, strs: strs, dict: dict,
		lastPrefix: lastPrefix,
		pivotal:    pivotal,
		pivMasks:   masks,
		winLen:     kappa + tau,
		strMasks:   strMasks,
		pivIdx:     pivIdx,
		preIdx:     preIdx,
		short:      short,
	}
	db.initRuntime()
	return db, nil
}

// readPostings decodes one flattened inverted index. Each record of
// width ints starts with its string id; valid must accept the record
// and ids must not decrease within a list.
func readPostings[P any](rd *snapshot.Reader, name string, width int, valid func([]int32) bool, rec func([]int32) P) (map[int32][]P, error) {
	keys, err := rd.I32s(name + ".keys")
	if err != nil {
		return nil, err
	}
	off, err := rd.U64s(name + ".off")
	if err != nil {
		return nil, err
	}
	post, err := rd.I32s(name + ".post")
	if err != nil {
		return nil, err
	}
	if len(off) != len(keys)+1 || int(off[len(keys)])*width != len(post) {
		return nil, fmt.Errorf("%w: %s: posting regions disagree: %d keys, %d offsets, %d ints",
			snapshot.ErrFormat, name, len(keys), len(off), len(post))
	}
	idx := make(map[int32][]P, len(keys))
	for i, k := range keys {
		lo, hi := off[i], off[i+1]
		if lo > hi || int(hi)*width > len(post) {
			return nil, fmt.Errorf("%w: %s: offsets not monotone at key %d", snapshot.ErrFormat, name, i)
		}
		ps := make([]P, hi-lo)
		for j := range ps {
			base := (int(lo) + j) * width
			r := post[base : base+width]
			if !valid(r) || j > 0 && r[0] < post[base-width] {
				return nil, fmt.Errorf("%w: %s: key %d: bad or out-of-order posting for id %d", snapshot.ErrFormat, name, k, r[0])
			}
			ps[j] = rec(r)
		}
		idx[k] = ps
	}
	return idx, nil
}
