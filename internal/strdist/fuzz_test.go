package strdist

import (
	"slices"
	"testing"
)

// FuzzEditDistanceWithin cross-checks the banded verifier against the
// full-matrix reference on arbitrary byte strings and thresholds.
func FuzzEditDistanceWithin(f *testing.F) {
	f.Add("kitten", "sitting", 3)
	f.Add("", "abc", 1)
	f.Add("llabcdefkk", "llabghijkk", 2)
	f.Add("aaaa", "aaaa", 0)
	f.Fuzz(func(t *testing.T, a, b string, tau int) {
		if len(a) > 64 || len(b) > 64 || tau < -2 || tau > 80 {
			t.Skip()
		}
		d := refEditDistance(a, b)
		got := EditDistanceWithin(a, b, tau)
		if tau < 0 || d > tau {
			if got != -1 {
				t.Fatalf("within(%q,%q,%d) = %d, want -1 (d=%d)", a, b, tau, got, d)
			}
			return
		}
		if got != d {
			t.Fatalf("within(%q,%q,%d) = %d, want %d", a, b, tau, got, d)
		}
	})
}

// FuzzContentBoundAdmissible checks the §6.3 content filter inequality
// ed ≥ ⌈H(mask)/2⌉ on arbitrary inputs.
func FuzzContentBoundAdmissible(f *testing.F) {
	f.Add("abc", "abd")
	f.Add("", "zzzz")
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 48 || len(b) > 48 {
			t.Skip()
		}
		lb := contentLowerBound(charMask(a), charMask(b))
		if d := refEditDistance(a, b); lb > d {
			t.Fatalf("content bound %d exceeds ed(%q,%q)=%d", lb, a, b, d)
		}
	})
}

// FuzzSearchRange cross-checks the windowed search against the linear
// scan: a corpus of up to 24 short strings over a 4-letter alphabet is
// decoded from the input (a 0xff byte ends a string), indexed at τ 0–3
// with a dictionary built on a prefix of the corpus — so indexed
// strings may hold grams the dictionary lacks — and searched by one of
// its strings or by the undecoded tail, Pivotal or Ring(l), over a
// window that may be empty or inverted.
func FuzzSearchRange(f *testing.F) {
	f.Add([]byte("abcab\xffabcdabca\xffbbcadd\xffabcab\xffdcba"), uint8(2), uint8(2), uint8(1), uint8(0), uint8(5), uint8(3), uint8(9))
	f.Add([]byte("aaaaaaaa\xffaaaabaaa\xffaaab"), uint8(1), uint8(1), uint8(0), uint8(1), uint8(3), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, tau, kappa, dictFrom, lo, hi, mode, qi uint8) {
		var strs []string
		var cur []byte
		for _, c := range data {
			if c == 0xff {
				strs = append(strs, string(cur))
				cur = nil
				continue
			}
			if len(cur) < 40 {
				cur = append(cur, 'a'+c%4)
			}
		}
		if len(strs) == 0 || len(strs) > 24 {
			t.Skip()
		}
		n := len(strs)
		dict, err := BuildGramDict(strs[int(dictFrom)%n:], 1+int(kappa)%3)
		if err != nil {
			t.Fatal(err)
		}
		db, err := NewDB(strs, dict, int(tau)%4)
		if err != nil {
			t.Fatal(err)
		}
		q := string(cur)
		if int(qi) < 2*n {
			q = strs[int(qi)%n]
		}
		opt := PivotalOptions()
		if l := int(mode) % 5; l > 0 {
			opt = RingOptions(l)
		}
		wlo, whi := int(lo)%(n+2)-1, int(hi)%(n+2)-1
		var want []int64
		for _, id := range db.SearchLinear(q) {
			if id >= wlo && id < whi {
				want = append(want, int64(id))
			}
		}
		var st Stats
		got, err := db.SearchRangeAppend(q, opt, wlo, whi, nil, &st)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) || st.Results != len(want) {
			t.Fatalf("τ=%d opt=%+v window [%d,%d) q=%q: %v (Results %d), want %v", db.Tau(), opt, wlo, whi, q, got, st.Results, want)
		}
	})
}
