package core

// BoxValues supplies the values of m boxes arranged in a ring. Box i is
// adjacent to box (i+1) mod m. Implementations may compute values lazily;
// the filter machinery consults boxes strictly in chain order and stops at
// the first quota violation, so an expensive Box method is only invoked
// for boxes that are actually needed.
type BoxValues interface {
	// Len returns m, the number of boxes on the ring.
	Len() int
	// Box returns the value of box i, 0 ≤ i < Len(). Callers may pass
	// i ≥ Len(); implementations must not be called that way — index
	// reduction modulo Len is performed by the caller.
	Box(i int) float64
}

// Boxes is an eagerly materialized ring of box values. It is the
// BoxValues implementation used when all values are cheap to compute
// up front, such as per-partition Hamming distances.
type Boxes []float64

// Len returns the number of boxes.
func (b Boxes) Len() int { return len(b) }

// Box returns the value of box i.
func (b Boxes) Box(i int) float64 { return b[i] }

// Sum returns ‖B‖₁, the sum of all box values.
func (b Boxes) Sum() float64 {
	var s float64
	for _, v := range b {
		s += v
	}
	return s
}

// ChainSum returns ‖c_i^l‖₁, the sum of the chain of length l starting at
// box i and proceeding clockwise with wrap-around. l must be in [0..m];
// an empty chain sums to 0.
func ChainSum(b BoxValues, i, l int) float64 {
	m := b.Len()
	var s float64
	for j := 0; j < l; j++ {
		k := i + j
		if k >= m {
			k -= m
		}
		s += b.Box(k)
	}
	return s
}

// BoxFunc adapts a function to the BoxValues interface. It is the lazy
// counterpart of Boxes: substrates wrap their (possibly expensive)
// per-box computations in a BoxFunc so that the filter only pays for the
// boxes it inspects.
type BoxFunc struct {
	M int
	F func(i int) float64
}

// Len returns the number of boxes.
func (b BoxFunc) Len() int { return b.M }

// Box returns the value of box i by invoking the wrapped function.
func (b BoxFunc) Box(i int) float64 { return b.F(i) }
