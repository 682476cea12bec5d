package core

import "testing"

// FuzzFilterSoundness drives the central soundness property through
// the fuzzer: any layout is accepted by any filter whose threshold
// covers its sum, in every mode.
func FuzzFilterSoundness(f *testing.F) {
	f.Add([]byte{2, 1, 2, 2, 1}, uint8(3), uint8(0), false, false)
	f.Add([]byte{0, 0, 9}, uint8(1), uint8(5), true, true)
	f.Fuzz(func(t *testing.T, raw []byte, lRaw, slack uint8, ge, intRed bool) {
		b := boxesFromBytes(raw)
		m := len(b)
		l := 1 + int(lRaw)%m
		dir := LE
		n := b.Sum() + float64(slack%16)
		if ge {
			dir = GE
			n = b.Sum() - float64(slack%16)
		}
		var filter *Filter
		if intRed {
			total := int(n) - m + 1
			if ge {
				total = int(n) + m - 1
			}
			filter = NewIntegerReduction(SpreadInteger(total, m), l, dir)
		} else {
			filter = NewUniform(n, m, l, dir)
		}
		if !filter.HasPrefixViableChain(b) {
			t.Fatalf("sound filter rejected: b=%v n=%v l=%d dir=%v intRed=%v", b, n, l, dir, intRed)
		}
		if filter.HasPrefixViableChain(b) != filter.hasPrefixViableChainNoSkip(b) {
			t.Fatal("skip changed the decision")
		}
	})
}
