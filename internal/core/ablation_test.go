package core

import "testing"

// hasPrefixViableChainNoSkip is HasPrefixViableChain without the
// Corollary 2 skip: the oracle the skip is checked against, and the
// baseline BenchmarkAblationSkip times it against.
func (f *Filter) hasPrefixViableChainNoSkip(b BoxValues) bool {
	for i := 0; i < f.m; i++ {
		if f.PrefixViableFrom(b, i) {
			return true
		}
	}
	return false
}

// BenchmarkAblationStrongVsBasic compares the strong form (prefix-viable
// chains, Theorem 3) against the basic form (chain sums only, Theorem
// 2) at equal chain length on the raw filter.
func BenchmarkAblationStrongVsBasic(b *testing.B) {
	boxes := makeAblationBoxes()
	f := NewUniform(64, 16, 6, LE)
	b.Run("strong", func(b *testing.B) {
		kept := 0
		for i := 0; i < b.N; i++ {
			if f.HasPrefixViableChain(boxes[i%len(boxes)]) {
				kept++
			}
		}
		b.ReportMetric(float64(kept)/float64(b.N), "pass-rate")
	})
	b.Run("basic", func(b *testing.B) {
		kept := 0
		for i := 0; i < b.N; i++ {
			if f.HasViableChain(boxes[i%len(boxes)]) {
				kept++
			}
		}
		b.ReportMetric(float64(kept)/float64(b.N), "pass-rate")
	})
	b.Run("pigeonhole", func(b *testing.B) {
		f1 := NewUniform(64, 16, 1, LE)
		kept := 0
		for i := 0; i < b.N; i++ {
			if f1.HasPrefixViableChain(boxes[i%len(boxes)]) {
				kept++
			}
		}
		b.ReportMetric(float64(kept)/float64(b.N), "pass-rate")
	})
}

// BenchmarkAblationSkip measures the Corollary 2 start-skipping
// optimization of HasPrefixViableChain.
func BenchmarkAblationSkip(b *testing.B) {
	boxes := makeAblationBoxes()
	f := NewUniform(64, 16, 6, LE)
	b.Run("with-skip", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.HasPrefixViableChain(boxes[i%len(boxes)])
		}
	})
	b.Run("no-skip", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.hasPrefixViableChainNoSkip(boxes[i%len(boxes)])
		}
	})
}

func makeAblationBoxes() []Boxes {
	// Deterministic pseudo-random box layouts around the threshold.
	out := make([]Boxes, 512)
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := range out {
		bx := make(Boxes, 16)
		for j := range bx {
			bx[j] = float64(next() % 9)
		}
		out[i] = bx
	}
	return out
}
