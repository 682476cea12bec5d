package core

import "fmt"

// Direction states which side of the threshold the selection function
// constrains. It determines what "viable" means for a chain.
type Direction int

const (
	// LE is for problems of the form f(x, q) ≤ τ (distance search).
	// A chain is viable when its sum is at most its quota.
	LE Direction = iota
	// GE is for problems of the form f(x, q) ≥ τ (similarity search).
	// A chain is viable when its sum is at least its quota.
	GE
)

// String returns "<=" or ">=".
func (d Direction) String() string {
	if d == LE {
		return "<="
	}
	return ">="
}

// Filter is a pigeonring filtering condition: an object survives the
// filter only if its box values admit a prefix-viable chain of the
// configured length. A Filter is immutable and safe for concurrent use.
//
// The zero Filter is not valid; use one of the constructors.
type Filter struct {
	m   int
	l   int
	dir Direction

	// Integer reduction (Theorem 7): each prefix quota of length l'
	// receives an extra slack of l'−1 (LE) or −(l'−1) (GE).
	intRed bool

	// Quota model. Exactly one of the two is active.
	uniform bool
	n       float64   // uniform: quota(l') = l'·n/m
	pre     []float64 // variable: doubled-ring prefix sums of T; len 2m+1
	tsum    float64   // variable: ‖T‖₁ (for diagnostics)
}

// NewUniform returns the strong-form filter of Theorem 3 (or its ≥ dual):
// a chain prefix of length l' is viable iff its sum is ≤ l'·n/m (LE) or
// ≥ l'·n/m (GE). l is the chain length used by the filter, 1 ≤ l ≤ m.
// With l = 1 the filter degenerates to the pigeonhole principle.
func NewUniform(n float64, m, l int, dir Direction) *Filter {
	validateML(m, l)
	return &Filter{m: m, l: l, dir: dir, uniform: true, n: n}
}

// NewVariable returns the variable-threshold-allocation filter of
// Theorem 6 (or its ≥ dual): a chain prefix of length l' starting at box
// i is viable iff its sum is ≤ t_i + ... + t_{i+l'-1} (LE). The caller is
// responsible for choosing t with ‖t‖₁ = n so that the theorem applies;
// Lemma 5 shows ‖t‖₁ cannot be reduced below n for real-valued boxes.
func NewVariable(t []float64, l int, dir Direction) *Filter {
	validateML(len(t), l)
	f := &Filter{m: len(t), l: l, dir: dir}
	f.setThresholds(t)
	return f
}

// NewIntegerReduction returns the integer-reduction filter of Theorem 7
// (or its ≥ dual) for integer-valued boxes: a chain prefix of length l'
// starting at box i is viable iff its sum is ≤ l'−1 + Σ t_j (LE), or
// ≥ 1−l' + Σ t_j (GE). The caller chooses t with ‖t‖₁ = n−m+1 for LE
// problems and ‖t‖₁ = n+m−1 for GE problems.
func NewIntegerReduction(t []float64, l int, dir Direction) *Filter {
	validateML(len(t), l)
	f := &Filter{m: len(t), l: l, dir: dir, intRed: true}
	f.setThresholds(t)
	return f
}

func validateML(m, l int) {
	if m < 1 {
		panic(fmt.Sprintf("core: filter needs at least one box, got m=%d", m))
	}
	if l < 1 || l > m {
		panic(fmt.Sprintf("core: chain length l=%d out of range [1..m=%d]", l, m))
	}
}

// setThresholds fills f.pre with the doubled-ring prefix sums of t.
func (f *Filter) setThresholds(t []float64) {
	m := len(t)
	f.pre = make([]float64, 2*m+1)
	for i := 0; i < 2*m; i++ {
		f.pre[i+1] = f.pre[i] + t[i%m]
	}
	f.tsum = f.pre[m]
}

// M returns the number of boxes on the ring.
func (f *Filter) M() int { return f.m }

// ChainLength returns l, the chain length the filter checks.
func (f *Filter) ChainLength() int { return f.l }

// Dir returns the filter's comparison direction.
func (f *Filter) Dir() Direction { return f.dir }

// WithChainLength returns a copy of f that checks chains of length l.
// It is the cheap way to sweep chain lengths over one threshold setup.
func (f *Filter) WithChainLength(l int) *Filter {
	validateML(f.m, l)
	g := *f
	g.l = l
	return &g
}

// Quota returns the viability quota for the prefix of length lp of a
// chain starting at box i, including the integer-reduction slack.
func (f *Filter) Quota(i, lp int) float64 {
	var q float64
	if f.uniform {
		// Multiply before dividing: for integral n this keeps the
		// quota exact whenever l'·n is divisible by m, so integer box
		// sums compare without rounding artifacts.
		q = float64(lp) * f.n / float64(f.m)
	} else {
		q = f.pre[i+lp] - f.pre[i]
	}
	if f.intRed {
		if f.dir == LE {
			q += float64(lp - 1)
		} else {
			q -= float64(lp - 1)
		}
	}
	return q
}

// ok reports whether a prefix sum meets its quota under the filter's
// direction.
func (f *Filter) ok(sum, quota float64) bool {
	if f.dir == LE {
		return sum <= quota
	}
	return sum >= quota
}

// prefixViableFrom checks the strong-form condition for the chain of
// length f.l starting at box i: every prefix of length l' in [1..l] must
// be within its quota. On failure it returns the prefix length at which
// the first violation occurred, which drives the Corollary 2 skip.
func (f *Filter) prefixViableFrom(b BoxValues, i int) (viable bool, failLen int) {
	var sum float64
	for lp := 1; lp <= f.l; lp++ {
		k := i + lp - 1
		if k >= f.m {
			k -= f.m
		}
		sum += b.Box(k)
		if !f.ok(sum, f.Quota(i, lp)) {
			return false, lp
		}
	}
	return true, 0
}

// PrefixViableFrom reports whether the chain of length ChainLength
// starting at box i is prefix-viable: every prefix of length l' in
// [1..l] is within its quota (Theorems 3, 6, 7 and their ≥ duals).
// Boxes are consumed in chain order and checking stops at the first
// violation, so lazy BoxValues implementations only pay for what is
// inspected.
func (f *Filter) PrefixViableFrom(b BoxValues, i int) bool {
	ok, _ := f.prefixViableFrom(b, i)
	return ok
}

// ViableFrom reports whether the chain of length ChainLength starting at
// box i is viable under the basic form (Theorem 2): only the full chain
// sum is compared against its quota, not every prefix.
func (f *Filter) ViableFrom(b BoxValues, i int) bool {
	sum := ChainSum(b, i, f.l)
	return f.ok(sum, f.Quota(i, f.l))
}

// HasPrefixViableChain reports whether any of the m chains of length
// ChainLength is prefix-viable. It applies the Corollary 2 skip from
// Section 7 of the paper: if the chain starting at i first violates its
// quota at prefix length l', then no chain starting in [i+1 .. i+l'-1]
// can be prefix-viable, and those starts are skipped.
//
// An object of a τ-selection problem is a candidate only if this
// reports true for its box values.
func (f *Filter) HasPrefixViableChain(b BoxValues) bool {
	for i := 0; i < f.m; {
		ok, fail := f.prefixViableFrom(b, i)
		if ok {
			return true
		}
		i += fail
	}
	return false
}

// HasViableChain reports whether any chain of length ChainLength is
// viable under the basic form (Theorem 2). The strong form implies the
// basic form, so HasPrefixViableChain ⇒ HasViableChain.
func (f *Filter) HasViableChain(b BoxValues) bool {
	// An O(m) sliding window over the doubled ring would also work for
	// eager boxes; the straightforward scan keeps lazy boxes lazy.
	for i := 0; i < f.m; i++ {
		if f.ViableFrom(b, i) {
			return true
		}
	}
	return false
}

// PrefixViableStarts returns every starting box whose chain of length
// ChainLength is prefix-viable. It is a diagnostic helper; candidate
// generation uses HasPrefixViableChain or PrefixViableFrom.
func (f *Filter) PrefixViableStarts(b BoxValues) []int {
	var starts []int
	for i := 0; i < f.m; i++ {
		if f.PrefixViableFrom(b, i) {
			starts = append(starts, i)
		}
	}
	return starts
}

// UniformThresholds returns the m-vector (n/m, ..., n/m), the threshold
// allocation under which NewVariable coincides with NewUniform.
func UniformThresholds(n float64, m int) []float64 {
	t := make([]float64, m)
	for i := range t {
		t[i] = n / float64(m)
	}
	return t
}

// SpreadInteger distributes total into m non-negative integers as evenly
// as possible (the first total mod m entries receive one extra unit) and
// returns them as float64 thresholds for NewIntegerReduction. total may
// be negative, in which case the same rule applies with negative parts.
func SpreadInteger(total, m int) []float64 {
	if m < 1 {
		panic("core: SpreadInteger needs m >= 1")
	}
	base := total / m
	rem := total - base*m
	t := make([]float64, m)
	for i := range t {
		t[i] = float64(base)
		if rem > 0 {
			t[i]++
			rem--
		} else if rem < 0 {
			t[i]--
			rem++
		}
	}
	return t
}
