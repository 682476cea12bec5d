package hamming

import (
	"cmp"
	"math/bits"
	"slices"
)

// partIndex is the inverted index of one part: an immutable table
// mapping a part value to the span of vector ids holding that value,
// in one of two flat layouts chosen by size at build time (useDirect).
// Direct-addressed: one offset per possible w-bit value plus one, value
// v's postings are ids[offs[v]:offs[v+1]] — no hashing, both offsets on
// one cache line. Hashed (offs == nil): open addressing with linear
// probing over slot keys and packed posting locations, at least one
// slot in four empty, so probe runs stay short and a miss terminates.
// Neither layout is persisted: a snapshot stores the vectors, and
// opening one rebuilds the tables.
type partIndex struct {
	// offs is the direct table, len (1<<w)+1, nil for a hashed part.
	// int32 like the ids it indexes: a posting offset is at most n.
	offs []int32
	// keys[s] is the part value stored in slot s, meaningful only when
	// loc[s] != 0.
	keys []uint64
	// loc[s] packs the posting span of slot s as start<<32|end into ids.
	// 0 marks an empty slot — unambiguous because a real span has
	// end > start ≥ 0, hence end ≥ 1.
	loc []uint64
	// ids holds the posting lists back to back in ascending key order,
	// each list in ascending id order.
	ids []int32
}

// maxDirectWidth bounds the width a direct table is considered for:
// beyond it no int32-addressable corpus has keys enough to justify one.
const maxDirectWidth = 32

// hashedCap is the slot count of the open-addressing table for nKeys
// distinct values: it bounds the load factor by 3/4 and is never full,
// so lookups terminate. Non-power-of-two capacities keep the table
// within ~4/3 of the key count.
func hashedCap(nKeys int) int { return nKeys + nKeys/3 + 1 }

// useDirect is the layout rule: a part of width w holding nKeys
// distinct values is direct-addressed exactly when that table
// ((1<<w)+1 four-byte offsets) is no larger than the hashed one
// (hashedCap sixteen-byte slots). A pure function of (w, nKeys), so
// builds are deterministic and there is no knob.
func useDirect(w, nKeys int) bool {
	return w <= maxDirectWidth && (1<<w)+1 <= 4*hashedCap(nKeys)
}

// slotOf maps a part value to its home slot in a c-slot table: a
// splitmix64-style finalizer to spread the low-entropy part values over
// 64 bits, then a multiply-shift range reduction onto [0, c).
func slotOf(v, c uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	hi, _ := bits.Mul64(v, c)
	return hi
}

// newPartIndex allocates a hashed table for nKeys distinct values over
// the given posting ids.
func newPartIndex(nKeys int, ids []int32) partIndex {
	c := hashedCap(nKeys)
	return partIndex{keys: make([]uint64, c), loc: make([]uint64, c), ids: ids}
}

// insert places key k with the posting span ids[start:end]. The caller
// inserts distinct keys only, in ascending order, so the layout is a
// pure function of the key set.
func (p *partIndex) insert(k uint64, start, end int) {
	c := uint64(len(p.loc))
	s := slotOf(k, c)
	for p.loc[s] != 0 {
		if s++; s == c {
			s = 0
		}
	}
	p.keys[s] = k
	p.loc[s] = uint64(start)<<32 | uint64(end)
}

// buildPartIndex indexes one part of width w, vals[id] being the part's
// value in vector id. The ids are ordered by (value, id) — by a
// counting sort whose count array doubles as the direct table when the
// part is narrow enough for one to pay off (useDirect with every value
// distinct), by a comparison sort otherwise — and the layout rule then
// decides on the distinct count. Both orders are total, so the layout
// is a pure function of the data.
func buildPartIndex(w int, vals []uint64) partIndex {
	n := len(vals)
	ids := make([]int32, n)
	if !useDirect(w, n) {
		for id := range ids {
			ids[id] = int32(id)
		}
		slices.SortFunc(ids, func(a, b int32) int {
			return cmp.Or(cmp.Compare(vals[a], vals[b]), cmp.Compare(a, b))
		})
		return hashedFromSorted(vals, ids)
	}
	// Count value v at offs[v+2]; after the prefix sum offs[v+1] is the
	// start of v's postings and serves as its fill cursor, which leaves
	// offs[v+1] = end of v = start of v+1: the finished table in place.
	size := 1 << w
	offs := make([]int32, size+2)
	for _, v := range vals {
		offs[v+2]++
	}
	nKeys := 0
	for v := 0; v < size; v++ {
		if offs[v+2] != 0 {
			nKeys++
		}
		offs[v+2] += offs[v+1]
	}
	for id, v := range vals {
		ids[offs[v+1]] = int32(id)
		offs[v+1]++
	}
	if useDirect(w, nKeys) {
		return partIndex{offs: offs[: size+1 : size+1], ids: ids}
	}
	return hashedFromSorted(vals, ids)
}

// hashedFromSorted builds the hashed table over ids already ordered by
// (vals[id], id), inserting each run of equal values in ascending key
// order.
func hashedFromSorted(vals []uint64, ids []int32) partIndex {
	nKeys := 0
	for i, id := range ids {
		if i == 0 || vals[id] != vals[ids[i-1]] {
			nKeys++
		}
	}
	p := newPartIndex(nKeys, ids)
	for start := 0; start < len(ids); {
		end := start + 1
		for end < len(ids) && vals[ids[end]] == vals[ids[start]] {
			end++
		}
		p.insert(vals[ids[start]], start, end)
		start = end
	}
	return p
}

// spans resolves every value of vals to its packed posting span
// start<<32|end (0 when absent, start == end when empty), into the
// parallel out. The lookups are independent of each other and of any
// posting scan, so the memory system overlaps their misses.
func (p *partIndex) spans(vals, out []uint64) {
	if p.offs != nil {
		for j, v := range vals {
			out[j] = uint64(p.offs[v])<<32 | uint64(p.offs[v+1])
		}
		return
	}
	c := uint64(len(p.loc))
	for j, v := range vals {
		s := slotOf(v, c)
		for p.loc[s] != 0 && p.keys[s] != v {
			if s++; s == c {
				s = 0
			}
		}
		out[j] = p.loc[s]
	}
}
