// Package bitvec provides fixed-dimension binary vectors, Hamming
// distance kernels, and bit-range partitioning. It is the substrate for
// Hamming distance search (§6.1 of the pigeonring paper) and for the
// content-based filter of string edit distance search (§6.3).
package bitvec

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Vector is a d-dimensional binary vector packed into 64-bit words.
// Bit i of the vector is bit (i % 64) of word i/64. The bits beyond the
// dimension are kept zero, so whole-word operations are safe.
type Vector struct {
	d int
	w []uint64
}

// New returns an all-zero vector of dimension d.
func New(d int) Vector {
	if d < 0 {
		panic("bitvec: negative dimension")
	}
	return Vector{d: d, w: make([]uint64, (d+63)/64)}
}

// Random returns a vector of dimension d with uniform random bits.
func Random(rng *rand.Rand, d int) Vector {
	v := New(d)
	for i := range v.w {
		v.w[i] = rng.Uint64()
	}
	v.maskTail()
	return v
}

// FromString parses a vector from a string of '0' and '1' characters,
// most significant (index 0) first. Whitespace is ignored, matching the
// paper's "0000 0011 1111" notation.
func FromString(s string) (Vector, error) {
	var bitvals []bool
	for _, c := range s {
		switch c {
		case '0':
			bitvals = append(bitvals, false)
		case '1':
			bitvals = append(bitvals, true)
		case ' ', '\t':
		default:
			return Vector{}, fmt.Errorf("bitvec: invalid character %q", c)
		}
	}
	v := New(len(bitvals))
	for i, b := range bitvals {
		if b {
			v.Set(i)
		}
	}
	return v, nil
}

// maskTail zeroes the unused bits of the last word. It writes only when
// there is something to clear, so FromWords over already-clean shared
// storage (a hamming.DB's arena) is a pure read.
func (v *Vector) maskTail() {
	if r := v.d % 64; r != 0 && len(v.w) > 0 {
		if last := &v.w[len(v.w)-1]; *last>>uint(r) != 0 {
			*last &= (1 << uint(r)) - 1
		}
	}
}

// Dim returns the dimension.
func (v Vector) Dim() int { return v.d }

// Bit reports whether bit i is set.
func (v Vector) Bit(i int) bool { return v.w[i/64]>>(uint(i)%64)&1 == 1 }

// Set sets bit i.
func (v Vector) Set(i int) { v.w[i/64] |= 1 << (uint(i) % 64) }

// Clear clears bit i.
func (v Vector) Clear(i int) { v.w[i/64] &^= 1 << (uint(i) % 64) }

// Flip inverts bit i.
func (v Vector) Flip(i int) { v.w[i/64] ^= 1 << (uint(i) % 64) }

// Words returns the vector's packed 64-bit words. The slice aliases the
// vector's storage; callers must treat it as read-only.
func (v Vector) Words() []uint64 { return v.w }

// FromWords builds a d-dimensional vector over the given packed words,
// which must number exactly (d+63)/64. The vector aliases words; bits
// beyond the dimension are zeroed.
func FromWords(d int, words []uint64) Vector {
	if len(words) != (d+63)/64 {
		panic(fmt.Sprintf("bitvec: %d words cannot hold %d dims", len(words), d))
	}
	v := Vector{d: d, w: words}
	v.maskTail()
	return v
}

// Clone returns an independent copy.
func (v Vector) Clone() Vector {
	c := Vector{d: v.d, w: make([]uint64, len(v.w))}
	copy(c.w, v.w)
	return c
}

// Popcount returns the number of set bits.
func (v Vector) Popcount() int {
	n := 0
	for _, x := range v.w {
		n += bits.OnesCount64(x)
	}
	return n
}

// String renders the vector as a '0'/'1' string, index 0 first.
func (v Vector) String() string {
	b := make([]byte, v.d)
	for i := 0; i < v.d; i++ {
		if v.Bit(i) {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// Equal reports whether two vectors have the same dimension and bits.
func (v Vector) Equal(o Vector) bool {
	if v.d != o.d {
		return false
	}
	for i := range v.w {
		if v.w[i] != o.w[i] {
			return false
		}
	}
	return true
}

// Hamming returns the Hamming distance between two vectors of equal
// dimension.
func Hamming(x, y Vector) int {
	if x.d != y.d {
		panic("bitvec: dimension mismatch")
	}
	n := 0
	for i := range x.w {
		n += bits.OnesCount64(x.w[i] ^ y.w[i])
	}
	return n
}

// HammingAbandon returns the Hamming distance if it is at most tau, or
// (-1) once it is known to exceed tau. It abandons the scan as soon as
// the partial distance crosses the threshold, the standard verification
// kernel for thresholded Hamming search.
func HammingAbandon(x, y Vector, tau int) int {
	if x.d != y.d {
		panic("bitvec: dimension mismatch")
	}
	n := 0
	for i := range x.w {
		n += bits.OnesCount64(x.w[i] ^ y.w[i])
		if n > tau {
			return -1
		}
	}
	return n
}

// RangeDistance returns the Hamming distance restricted to bit positions
// [lo, hi).
func RangeDistance(x, y Vector, lo, hi int) int {
	n := 0
	wlo, whi := lo/64, (hi+63)/64
	for wi := wlo; wi < whi; wi++ {
		xor := x.w[wi] ^ y.w[wi]
		base := wi * 64
		if lo > base {
			xor &^= (1 << (uint(lo) % 64)) - 1
		}
		if hi < base+64 {
			xor &= (1 << (uint(hi) % 64)) - 1
		}
		n += bits.OnesCount64(xor)
	}
	return n
}

// ExtractRange returns bits [lo, hi) as a uint64; hi−lo must be ≤ 64.
func (v Vector) ExtractRange(lo, hi int) uint64 {
	width := hi - lo
	if width < 0 || width > 64 {
		panic("bitvec: ExtractRange width out of [0,64]")
	}
	if width == 0 {
		return 0
	}
	wlo := lo / 64
	off := uint(lo) % 64
	val := v.w[wlo] >> off
	if off != 0 && wlo+1 < len(v.w) {
		val |= v.w[wlo+1] << (64 - off)
	}
	if width < 64 {
		val &= (1 << uint(width)) - 1
	}
	return val
}

// Partitioning divides dimensions [0, D) into M consecutive disjoint
// parts. Part i covers [Bounds[i], Bounds[i+1]).
type Partitioning struct {
	D      int
	Bounds []int
}

// NewEqualPartitioning partitions d dimensions into m parts whose widths
// differ by at most one (the first d mod m parts get the extra bit).
// Each part must be at most 64 bits wide so that part values fit a word.
func NewEqualPartitioning(d, m int) Partitioning {
	if m < 1 || d < m {
		panic(fmt.Sprintf("bitvec: cannot partition %d dims into %d parts", d, m))
	}
	if (d+m-1)/m > 64 {
		panic(fmt.Sprintf("bitvec: parts wider than 64 bits (d=%d m=%d)", d, m))
	}
	bounds := make([]int, m+1)
	base, rem := d/m, d%m
	for i := 0; i < m; i++ {
		w := base
		if i < rem {
			w++
		}
		bounds[i+1] = bounds[i] + w
	}
	return Partitioning{D: d, Bounds: bounds}
}

// M returns the number of parts.
func (p Partitioning) M() int { return len(p.Bounds) - 1 }

// Width returns the width of part i in bits.
func (p Partitioning) Width(i int) int { return p.Bounds[i+1] - p.Bounds[i] }

// Extract returns the value of part i of v as a uint64.
func (p Partitioning) Extract(v Vector, i int) uint64 {
	return v.ExtractRange(p.Bounds[i], p.Bounds[i+1])
}

// PartDistance returns the Hamming distance between x and y restricted
// to part i. Because parts are disjoint, the part distances of a pair
// sum exactly to their full Hamming distance — the tight ⟨F,B,D⟩
// instance of §6.1.
func (p Partitioning) PartDistance(x, y Vector, i int) int {
	return RangeDistance(x, y, p.Bounds[i], p.Bounds[i+1])
}

// EnumerateBall invokes fn for every w-bit value u with Hamming distance
// at most t from center, in order of increasing distance. It is the
// candidate-probe enumeration of GPH-style indexes. The number of values
// visited is Σ_{k≤t} C(w, k).
func EnumerateBall(center uint64, w, t int, fn func(u uint64)) {
	if w < 0 || w > 64 {
		panic("bitvec: ball width out of [0,64]")
	}
	if t > w {
		t = w
	}
	fn(center)
	if t < 1 {
		return
	}
	// flip positions chosen recursively: combinations of k bits.
	var rec func(val uint64, next, remaining int)
	rec = func(val uint64, next, remaining int) {
		if remaining == 0 {
			fn(val)
			return
		}
		// Leave room for the remaining flips.
		for pos := next; pos <= w-remaining; pos++ {
			rec(val^(1<<uint(pos)), pos+1, remaining-1)
		}
	}
	for k := 1; k <= t; k++ {
		rec(center, 0, k)
	}
}

// BallSize returns Σ_{k≤t} C(w, k), the number of values EnumerateBall
// visits.
func BallSize(w, t int) int {
	if t > w {
		t = w
	}
	total := 0
	c := 1
	for k := 0; k <= t; k++ {
		total += c
		c = c * (w - k) / (k + 1)
	}
	return total
}
