package core

import (
	"math/rand"
	"testing"
)

// --- Paper worked examples -------------------------------------------------

// TestPaperExample1 reproduces Example 1 and Figure 1: with n = 5 and
// m = 5, both layouts pass the pigeonhole filter (l = 1) even though
// their sums exceed n.
func TestPaperExample1(t *testing.T) {
	layouts := []Boxes{
		{2, 1, 2, 2, 1},
		{2, 0, 3, 1, 2},
	}
	for _, b := range layouts {
		if got := b.Sum(); got != 8 {
			t.Fatalf("layout %v: sum = %v, want 8", b, got)
		}
		f := NewUniform(5, 5, 1, LE)
		if !f.HasPrefixViableChain(b) {
			t.Errorf("layout %v should pass the pigeonhole (l=1) filter", b)
		}
	}
}

// TestPaperIntroBasicForm checks the introduction's analysis: under the
// basic form with l = 2, layout (2,1,2,2,1) is filtered (all pair sums
// exceed 2) while (2,0,3,1,2) still passes (b0+b1 = 2).
func TestPaperIntroBasicForm(t *testing.T) {
	f := NewUniform(5, 5, 2, LE)
	if f.HasViableChain(Boxes{2, 1, 2, 2, 1}) {
		t.Error("(2,1,2,2,1) should fail the basic form at l=2")
	}
	if !f.HasViableChain(Boxes{2, 0, 3, 1, 2}) {
		t.Error("(2,0,3,1,2) should pass the basic form at l=2")
	}
}

// TestPaperIntroStrongForm checks the introduction's strong-form claim:
// at l = 2 neither layout has an i with b_i ≤ 1 and b_i + b_{i+1} ≤ 2.
func TestPaperIntroStrongForm(t *testing.T) {
	f := NewUniform(5, 5, 2, LE)
	for _, b := range []Boxes{{2, 1, 2, 2, 1}, {2, 0, 3, 1, 2}} {
		if f.HasPrefixViableChain(b) {
			t.Errorf("layout %v should fail the strong form at l=2", b)
		}
	}
}

// TestPaperExample4 reproduces Example 4's chain arithmetic on the
// layout of Figure 1(a).
func TestPaperExample4(t *testing.T) {
	b := Boxes{2, 1, 2, 2, 1}
	if got := ChainSum(b, 3, 4); got != 6 { // c_3^4 = (b3,b4,b0,b1)
		t.Errorf("‖c_3^4‖ = %v, want 6", got)
	}
	if got := ChainSum(b, 3, 5); got != b.Sum() { // complete chain
		t.Errorf("‖c_3^5‖ = %v, want ‖B‖ = %v", got, b.Sum())
	}
	if got := ChainSum(b, 3, 0); got != 0 { // empty chain
		t.Errorf("empty chain sums to %v, want 0", got)
	}
}

// TestPaperExample5 reproduces Example 5: the four Hamming box layouts
// of Table 2 under the basic form with l = 2 and τ = 5.
func TestPaperExample5(t *testing.T) {
	layouts := map[string]struct {
		b         Boxes
		chainSums []float64
		candidate bool
	}{
		"x1": {Boxes{2, 1, 2, 2, 1}, []float64{3, 3, 4, 3, 3}, false},
		"x2": {Boxes{0, 2, 0, 2, 1}, []float64{2, 2, 2, 3, 1}, true},
		"x3": {Boxes{1, 2, 2, 1, 1}, []float64{3, 4, 3, 2, 2}, true},
		"x4": {Boxes{2, 2, 2, 2, 2}, []float64{4, 4, 4, 4, 4}, false},
	}
	f := NewUniform(5, 5, 2, LE)
	for name, tc := range layouts {
		for i, want := range tc.chainSums {
			if got := ChainSum(tc.b, i, 2); got != want {
				t.Errorf("%s: ‖c_%d^2‖ = %v, want %v", name, i, got, want)
			}
		}
		if got := f.HasViableChain(tc.b); got != tc.candidate {
			t.Errorf("%s: basic-form candidate = %v, want %v", name, got, tc.candidate)
		}
	}
	// The strong form keeps x2 (start 0: 0 ≤ 1, 2 ≤ 2) and x3
	// (start 3: 1 ≤ 1, 2 ≤ 2) as candidates.
	if !f.HasPrefixViableChain(layouts["x2"].b) {
		t.Error("x2 should remain a candidate under the strong form")
	}
	if !f.HasPrefixViableChain(layouts["x3"].b) {
		t.Error("x3 should remain a candidate under the strong form")
	}
}

// TestPaperExample6 reproduces Example 6: B = (2,0,3,1,2) with τ = 5,
// m = 5, l = 2 passes the basic form only via c_0^2, whose 1-prefix
// violates its quota, so the strong form filters it.
func TestPaperExample6(t *testing.T) {
	b := Boxes{2, 0, 3, 1, 2}
	f := NewUniform(5, 5, 2, LE)
	wantSums := []float64{2, 3, 4, 3, 4}
	for i, want := range wantSums {
		if got := ChainSum(b, i, 2); got != want {
			t.Errorf("‖c_%d^2‖ = %v, want %v", i, got, want)
		}
	}
	if !f.HasViableChain(b) {
		t.Error("basic form should accept via c_0^2")
	}
	if f.HasPrefixViableChain(b) {
		t.Error("strong form should filter the object")
	}
}

// TestPaperExample7 reproduces Example 7: variable threshold allocation
// T = (1,2,0,1,1) with ‖T‖₁ = τ = 5 filters x1 = (2,1,2,2,1) at l = 2
// because the only sum-viable chain c_0^2 has a non-viable 1-prefix.
func TestPaperExample7(t *testing.T) {
	b := Boxes{2, 1, 2, 2, 1}
	f := NewVariable([]float64{1, 2, 0, 1, 1}, 2, LE)
	// c_0^2 is the only chain of length 2 with ‖c‖ ≤ t_i + t_{i+1}.
	viable := 0
	for i := 0; i < 5; i++ {
		if f.ViableFrom(b, i) {
			viable++
			if i != 0 {
				t.Errorf("unexpected sum-viable chain start %d", i)
			}
		}
	}
	if viable != 1 {
		t.Errorf("found %d sum-viable chains, want 1", viable)
	}
	if f.HasPrefixViableChain(b) {
		t.Error("variable-threshold strong form should filter x1")
	}
}

// TestPaperExample8 reproduces Example 8: integer reduction with
// T = (1,0,0,0,0), ‖T‖₁ = τ−m+1 = 1, filters x3 = (1,2,2,1,1) at l = 2:
// c_4^2 meets its chain quota (2 ≤ 2) but its 1-prefix does not (1 > 0).
func TestPaperExample8(t *testing.T) {
	b := Boxes{1, 2, 2, 1, 1}
	f := NewIntegerReduction([]float64{1, 0, 0, 0, 0}, 2, LE)
	viable := 0
	for i := 0; i < 5; i++ {
		if f.ViableFrom(b, i) {
			viable++
			if i != 4 {
				t.Errorf("unexpected sum-viable chain start %d", i)
			}
		}
	}
	if viable != 1 {
		t.Errorf("found %d sum-viable chains, want 1", viable)
	}
	if got := f.Quota(4, 2); got != 2 { // l−1 + t4 + t0 = 1 + 0 + 1
		t.Errorf("Quota(4,2) = %v, want 2", got)
	}
	if got := f.Quota(4, 1); got != 0 { // 1−1 + t4 = 0
		t.Errorf("Quota(4,1) = %v, want 0", got)
	}
	if f.HasPrefixViableChain(b) {
		t.Error("integer-reduction strong form should filter x3")
	}
}

// --- Filter mechanics ------------------------------------------------------

func TestQuotaUniformExactness(t *testing.T) {
	// l'·n/m must be exact when divisible: τ = 6, m = 3 → quotas 2, 4, 6.
	f := NewUniform(6, 3, 3, LE)
	for lp, want := range map[int]float64{1: 2, 2: 4, 3: 6} {
		if got := f.Quota(0, lp); got != want {
			t.Errorf("Quota(0,%d) = %v, want %v", lp, got, want)
		}
	}
}

func TestQuotaIntegerReductionGE(t *testing.T) {
	// GE integer reduction subtracts the slack: quota(l') = Σt − (l'−1).
	f := NewIntegerReduction([]float64{4, 1, 2}, 3, GE)
	if got := f.Quota(1, 2); got != 1+2-1 {
		t.Errorf("Quota(1,2) = %v, want 2", got)
	}
	if got := f.Quota(2, 2); got != 2+4-1 { // wraps to t2 + t0
		t.Errorf("Quota(2,2) = %v, want 5", got)
	}
}

func TestGEDirectionFiltering(t *testing.T) {
	// Overlap-style problem: result iff sum ≥ 6 with m = 3.
	f := NewUniform(6, 3, 2, GE)
	if !f.HasPrefixViableChain(Boxes{2, 2, 2}) {
		t.Error("(2,2,2) with sum 6 must pass (Theorem 3 ≥ dual)")
	}
	// (0,5,0): l=1 viable at box 1 (5 ≥ 2) but no prefix-viable chain of
	// length 2: start 1 needs 5+0 ≥ 4 ok and 5 ≥ 2 ok → actually viable.
	if !f.HasPrefixViableChain(Boxes{0, 5, 0}) {
		t.Error("(0,5,0): chain starting at 1 is prefix-viable (5 ≥ 2, 5 ≥ 4)")
	}
	// (3,0,0): box 0 viable (3 ≥ 2) but 3+0 = 3 < 4 and no other start
	// works, so the strong form filters it.
	if f.HasPrefixViableChain(Boxes{3, 0, 0}) {
		t.Error("(3,0,0) should be filtered by the ≥ strong form at l=2")
	}
}

func TestWithChainLength(t *testing.T) {
	f := NewUniform(5, 5, 1, LE)
	g := f.WithChainLength(3)
	if g.ChainLength() != 3 || f.ChainLength() != 1 {
		t.Fatal("WithChainLength must not mutate the receiver")
	}
	defer func() {
		if recover() == nil {
			t.Error("WithChainLength(6) with m=5 should panic")
		}
	}()
	f.WithChainLength(6)
}

func TestConstructorValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewUniform(1, 0, 1, LE) },
		func() { NewUniform(1, 3, 0, LE) },
		func() { NewUniform(1, 3, 4, LE) },
		func() { NewVariable(nil, 1, LE) },
		func() { NewIntegerReduction([]float64{1}, 2, LE) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on invalid construction")
				}
			}()
			fn()
		}()
	}
}

func TestPrefixViableStarts(t *testing.T) {
	b := Boxes{0, 2, 0, 2, 1} // x2 of Example 5
	f := NewUniform(5, 5, 2, LE)
	got := f.PrefixViableStarts(b)
	// Starts 0 (0,2), 2 (0,2) and 4 (1,1) are prefix-viable: prefixes
	// 0≤1,2≤2 / 0≤1,2≤2 / 1≤1,2≤2.
	want := []int{0, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("PrefixViableStarts = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PrefixViableStarts = %v, want %v", got, want)
		}
	}
}

func TestSpreadInteger(t *testing.T) {
	cases := []struct {
		total, m int
		want     []float64
	}{
		{7, 3, []float64{3, 2, 2}},
		{6, 3, []float64{2, 2, 2}},
		{0, 4, []float64{0, 0, 0, 0}},
		{-5, 3, []float64{-2, -2, -1}},
		{2, 5, []float64{1, 1, 0, 0, 0}},
	}
	for _, tc := range cases {
		got := SpreadInteger(tc.total, tc.m)
		sum := 0.0
		for i, v := range got {
			sum += v
			if v != tc.want[i] {
				t.Errorf("SpreadInteger(%d,%d) = %v, want %v", tc.total, tc.m, got, tc.want)
				break
			}
		}
		if sum != float64(tc.total) {
			t.Errorf("SpreadInteger(%d,%d) sums to %v", tc.total, tc.m, sum)
		}
	}
}

func TestUniformThresholds(t *testing.T) {
	got := UniformThresholds(6, 3)
	for _, v := range got {
		if v != 2 {
			t.Fatalf("UniformThresholds(6,3) = %v", got)
		}
	}
	// NewVariable with uniform thresholds coincides with NewUniform when
	// n/m is exactly representable.
	fu := NewUniform(6, 3, 2, LE)
	fv := NewVariable(got, 2, LE)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		b := make(Boxes, 3)
		for i := range b {
			b[i] = float64(rng.Intn(5))
		}
		if fu.HasPrefixViableChain(b) != fv.HasPrefixViableChain(b) {
			t.Fatalf("uniform and variable filters disagree on %v", b)
		}
	}
}

// TestLazyEarlyStop verifies that PrefixViableFrom stops consulting
// boxes at the first quota violation.
func TestLazyEarlyStop(t *testing.T) {
	seen := make([]bool, 6)
	b := BoxFunc{M: 6, F: func(i int) float64 {
		seen[i] = true
		return 100 // every box violates immediately
	}}
	f := NewUniform(6, 6, 4, LE)
	if f.PrefixViableFrom(b, 2) {
		t.Fatal("chain should not be viable")
	}
	for i, s := range seen {
		if s != (i == 2) {
			t.Errorf("box %d consulted = %v", i, s)
		}
	}
}

func TestDirectionString(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" {
		t.Error("Direction.String misbehaves")
	}
}
