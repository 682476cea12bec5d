package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// boxesFromBytes derives a bounded integer-valued box layout from raw
// fuzz bytes: m = len(raw) clamped to [1..12], values in [0..15]. Using
// small integers keeps all arithmetic exact, so the property tests are
// free of floating-point tolerance concerns.
func boxesFromBytes(raw []byte) Boxes {
	m := len(raw)
	if m == 0 {
		return Boxes{0}
	}
	if m > 12 {
		m = 12
	}
	b := make(Boxes, m)
	for i := 0; i < m; i++ {
		b[i] = float64(raw[i] % 16)
	}
	return b
}

var quickCfg = &quick.Config{MaxCount: 400}

// TestTheorem1Pigeonhole: if ‖B‖₁ ≤ n then some box is ≤ n/m. The l = 1
// pigeonring filter must therefore accept.
func TestTheorem1Pigeonhole(t *testing.T) {
	prop := func(raw []byte, slack uint8) bool {
		b := boxesFromBytes(raw)
		n := b.Sum() + float64(slack%8)
		f := NewUniform(n, len(b), 1, LE)
		return f.HasPrefixViableChain(b)
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestTheorem2BasicForm: if ‖B‖₁ ≤ n then for every l in [1..m] there is
// a chain of length l with sum ≤ l·n/m.
func TestTheorem2BasicForm(t *testing.T) {
	prop := func(raw []byte, slack uint8) bool {
		b := boxesFromBytes(raw)
		n := b.Sum() + float64(slack%8)
		for l := 1; l <= len(b); l++ {
			if !NewUniform(n, len(b), l, LE).HasViableChain(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestTheorem3StrongForm: if ‖B‖₁ ≤ n then for every l in [1..m] there
// is a prefix-viable chain of length l. This is the paper's central
// theorem; the filter is sound because its contrapositive holds: if no
// prefix-viable chain exists, the object cannot be a result.
func TestTheorem3StrongForm(t *testing.T) {
	prop := func(raw []byte, slack uint8) bool {
		b := boxesFromBytes(raw)
		n := b.Sum() + float64(slack%8)
		for l := 1; l <= len(b); l++ {
			if !NewUniform(n, len(b), l, LE).HasPrefixViableChain(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestTheorem3GEDual: if ‖B‖₁ ≥ n then for every l there is a chain
// whose every prefix sum is ≥ l'·n/m.
func TestTheorem3GEDual(t *testing.T) {
	prop := func(raw []byte, slack uint8) bool {
		b := boxesFromBytes(raw)
		n := b.Sum() - float64(slack%8)
		for l := 1; l <= len(b); l++ {
			if !NewUniform(n, len(b), l, GE).HasPrefixViableChain(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestTheorem6VariableThresholds: for any T with ‖T‖₁ = n and any B with
// ‖B‖₁ ≤ n, the variable-threshold strong form accepts at every l.
func TestTheorem6VariableThresholds(t *testing.T) {
	prop := func(raw []byte, traw []byte, deficit uint8) bool {
		b := boxesFromBytes(raw)
		m := len(b)
		tvals := make([]float64, m)
		for i := range tvals {
			if len(traw) > 0 {
				tvals[i] = float64(traw[i%len(traw)] % 16)
			}
		}
		// Force ‖B‖₁ ≤ ‖T‖₁ = n by shrinking boxes if needed.
		n := 0.0
		for _, v := range tvals {
			n += v
		}
		sum := b.Sum()
		for i := 0; sum > n && i < m; i++ {
			sum -= b[i]
			b[i] = 0
		}
		if b.Sum() > n {
			return true // can't establish the premise; vacuous
		}
		f := NewVariable(tvals, 1, LE)
		for l := 1; l <= m; l++ {
			if !f.WithChainLength(l).HasPrefixViableChain(b) {
				return false
			}
		}
		_ = deficit
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestTheorem7IntegerReduction: for integer boxes and integer T with
// ‖T‖₁ = n−m+1, the integer-reduction strong form accepts whenever
// ‖B‖₁ ≤ n, at every l.
func TestTheorem7IntegerReduction(t *testing.T) {
	prop := func(raw []byte, slack uint8) bool {
		b := boxesFromBytes(raw)
		m := len(b)
		n := int(b.Sum()) + int(slack%8)
		tvals := SpreadInteger(n-m+1, m)
		f := NewIntegerReduction(tvals, 1, LE)
		for l := 1; l <= m; l++ {
			if !f.WithChainLength(l).HasPrefixViableChain(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestTheorem7IntegerReductionGE: the ≥ dual uses ‖T‖₁ = n+m−1 and
// quota Σt − (l'−1); it accepts whenever ‖B‖₁ ≥ n.
func TestTheorem7IntegerReductionGE(t *testing.T) {
	prop := func(raw []byte, slack uint8) bool {
		b := boxesFromBytes(raw)
		m := len(b)
		n := int(b.Sum()) - int(slack%8)
		tvals := SpreadInteger(n+m-1, m)
		f := NewIntegerReduction(tvals, 1, GE)
		for l := 1; l <= m; l++ {
			if !f.WithChainLength(l).HasPrefixViableChain(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestLemma1And4SubsetChain: for arbitrary boxes (result or not), the
// candidate predicates are nested: strong form ⇒ basic form ⇒ pigeonhole.
// So strong-form candidates ⊆ basic-form candidates ⊆ pigeonhole
// candidates, which is Lemmas 1 and 4 of the paper.
func TestLemma1And4SubsetChain(t *testing.T) {
	prop := func(raw []byte, nRaw uint8, lRaw uint8) bool {
		b := boxesFromBytes(raw)
		m := len(b)
		n := float64(nRaw % 64)
		l := 1 + int(lRaw)%m
		strong := NewUniform(n, m, l, LE)
		hole := NewUniform(n, m, 1, LE)
		if strong.HasPrefixViableChain(b) {
			if !strong.HasViableChain(b) {
				return false // strong ⇒ basic
			}
			if !hole.HasPrefixViableChain(b) {
				return false // basic at l ⇒ pigeonhole (via Theorem 1 inside the chain)
			}
		}
		if strong.HasViableChain(b) && !hole.HasPrefixViableChain(b) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestChainLengthMonotonicity: §8.2 observes candidates shrink as l
// grows, because a prefix-viable chain of length l+1 contains a
// prefix-viable chain of length l with the same start.
func TestChainLengthMonotonicity(t *testing.T) {
	prop := func(raw []byte, nRaw uint8) bool {
		b := boxesFromBytes(raw)
		m := len(b)
		n := float64(nRaw % 64)
		accept := func(l int) bool {
			return NewUniform(n, m, l, LE).HasPrefixViableChain(b)
		}
		for l := 1; l < m; l++ {
			if accept(l+1) && !accept(l) {
				return false // passing at l+1 must imply passing at l
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestLemma2Concatenation: concatenating two contiguous viable chains
// yields a viable chain; same for non-viable (uniform quotas).
func TestLemma2Concatenation(t *testing.T) {
	prop := func(raw []byte, nRaw, iRaw, lRaw, l2Raw uint8) bool {
		b := boxesFromBytes(raw)
		m := len(b)
		n := float64(nRaw % 64)
		i := int(iRaw) % m
		l1 := 1 + int(lRaw)%m
		l2 := 1 + int(l2Raw)%m
		if l1+l2 > m {
			return true
		}
		q := func(l int) float64 { return float64(l) * n / float64(m) }
		s1 := ChainSum(b, i, l1)
		s2 := ChainSum(b, (i+l1)%m, l2)
		s12 := ChainSum(b, i, l1+l2)
		if s1 <= q(l1) && s2 <= q(l2) && s12 > q(l1+l2) {
			return false
		}
		if s1 > q(l1) && s2 > q(l2) && s12 <= q(l1+l2) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestCorollary2PrefixViableConcat: concatenating two contiguous
// prefix-viable chains yields a prefix-viable chain.
func TestCorollary2PrefixViableConcat(t *testing.T) {
	prop := func(raw []byte, nRaw, iRaw, lRaw, l2Raw uint8) bool {
		b := boxesFromBytes(raw)
		m := len(b)
		n := float64(nRaw % 64)
		i := int(iRaw) % m
		l1 := 1 + int(lRaw)%m
		l2 := 1 + int(l2Raw)%m
		if l1+l2 > m {
			return true
		}
		f1 := NewUniform(n, m, l1, LE)
		f2 := NewUniform(n, m, l2, LE)
		f12 := NewUniform(n, m, l1+l2, LE)
		if f1.PrefixViableFrom(b, i) && f2.PrefixViableFrom(b, (i+l1)%m) {
			return f12.PrefixViableFrom(b, i)
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestSkipEquivalence: the Corollary 2 skip never changes the decision,
// across directions and threshold modes.
func TestSkipEquivalence(t *testing.T) {
	prop := func(raw []byte, traw []byte, nRaw, lRaw uint8, ge, intRed bool) bool {
		b := boxesFromBytes(raw)
		m := len(b)
		l := 1 + int(lRaw)%m
		dir := LE
		if ge {
			dir = GE
		}
		tvals := make([]float64, m)
		for i := range tvals {
			if len(traw) > 0 {
				tvals[i] = float64(traw[i%len(traw)] % 8)
			}
		}
		var f *Filter
		if intRed {
			f = NewIntegerReduction(tvals, l, dir)
		} else {
			f = NewVariable(tvals, l, dir)
		}
		if f.HasPrefixViableChain(b) != f.hasPrefixViableChainNoSkip(b) {
			return false
		}
		fu := NewUniform(float64(nRaw%64), m, l, dir)
		return fu.HasPrefixViableChain(b) == fu.hasPrefixViableChainNoSkip(b)
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestStrongFormL1EqualsPigeonhole: at l = 1 the pigeonring filter is
// exactly the pigeonhole filter (the paper's "special case" remark).
func TestStrongFormL1EqualsPigeonhole(t *testing.T) {
	prop := func(raw []byte, nRaw uint8) bool {
		b := boxesFromBytes(raw)
		m := len(b)
		n := float64(nRaw % 64)
		f := NewUniform(n, m, 1, LE)
		holeAccepts := false
		for i := 0; i < m; i++ {
			if b[i] <= n/float64(m) {
				holeAccepts = true
				break
			}
		}
		return f.HasPrefixViableChain(b) == holeAccepts
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestCompleteChainSubsumesVerification: with ‖B‖₁ = f(x,q) and l = m,
// the filter accepts iff ‖B‖₁ ≤ n — candidate generation subsumes
// verification (§3 remark after Lemma 1).
func TestCompleteChainSubsumesVerification(t *testing.T) {
	prop := func(raw []byte, nRaw uint8) bool {
		b := boxesFromBytes(raw)
		m := len(b)
		n := float64(nRaw % 64)
		f := NewUniform(n, m, m, LE)
		return f.HasPrefixViableChain(b) == (b.Sum() <= n)
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestStrongWitnessProperty: the Appendix A witness is prefix-viable at
// every length for quota l·‖B‖₁/m.
func TestStrongWitnessProperty(t *testing.T) {
	prop := func(raw []byte) bool {
		b := boxesFromBytes(raw)
		m := len(b)
		i := StrongWitness(b)
		n := b.Sum()
		const eps = 1e-9
		f := NewUniform(n+eps, m, m, LE)
		return f.PrefixViableFrom(b, i)
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestWeakWitnessProperty: the sliding-window witness meets the basic
// form bound at its length.
func TestWeakWitnessProperty(t *testing.T) {
	prop := func(raw []byte, lRaw uint8) bool {
		b := boxesFromBytes(raw)
		m := len(b)
		l := 1 + int(lRaw)%m
		i := WeakWitness(b, l)
		const eps = 1e-9
		return ChainSum(b, i, l) <= float64(l)*b.Sum()/float64(m)+eps
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestFilterSoundnessRandom drives the full soundness statement with a
// plain PRNG for breadth beyond quick's default corpus: generate random
// layouts, treat n = ‖B‖₁ as the selection value, and check that a
// filter with threshold τ ≥ n always accepts.
func TestFilterSoundnessRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		m := 1 + rng.Intn(16)
		b := make(Boxes, m)
		for i := range b {
			b[i] = float64(rng.Intn(10))
		}
		tau := b.Sum() + float64(rng.Intn(5))
		l := 1 + rng.Intn(m)
		for _, intRed := range []bool{false, true} {
			var f *Filter
			if intRed {
				f = NewIntegerReduction(SpreadInteger(int(tau)-m+1, m), l, LE)
			} else {
				f = NewUniform(tau, m, l, LE)
			}
			if !f.HasPrefixViableChain(b) {
				t.Fatalf("sound filter rejected a result: b=%v τ=%v l=%d intRed=%v", b, tau, l, intRed)
			}
		}
	}
}
