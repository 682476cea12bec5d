// Package strdist implements thresholded string edit distance search
// (Problem 4 of the pigeonring paper) with the Pivotal algorithm as the
// pigeonhole baseline — pivotal prefix filter plus alignment filter —
// and its pigeonring upgrade "Ring" (§6.3), which replaces the
// alignment filter's expensive per-gram edit distances with cheap
// content-based (bit-vector) lower bounds checked incrementally along
// chains.
//
// The ⟨F, B, D⟩ instance follows §6.3: m = τ+1 boxes, one per pivotal
// q-gram of the side whose prefix ends first in the global order; box i
// is the minimum edit distance from pivotal gram i to the substrings of
// the other string within a ±τ position window; D(τ) = τ. The instance
// is complete (‖B‖₁ ≤ ed(x,q), Lemma 6) but not tight.
//
// One deviation from the paper's remark is deliberate: the remark
// limits content-filter windows to length κ, but a window of length κ
// only can make the bit-vector bound exceed the true per-gram alignment
// cost (an aligned segment may be up to κ+τ long), which would break
// completeness. We therefore take the minimum over substrings of every
// length up to κ+τ inside the position window — admissible because the
// truly aligned segment is among them and ed(g, s) ≥ H(mask(g),
// mask(s))/2. Exactness tests against brute force cover this.
//
// The index (DB) is flat: the pivotal and prefix inverted lists are CSR
// arrays keyed by gram id whose postings carry the case split, position
// and length a probe tests, and each indexed string's τ+1 pivotal boxes
// (char mask and position) are one record in an arena that its pivotal
// postings address. Strings the scheme cannot index — too short for
// τ+1 pivotal grams, longer than 65 535 bytes, or holding a gram the
// dictionary lacks — are verified directly with the length filter.
package strdist

import "math/bits"

// EditDistance returns the Levenshtein distance between a and b using
// the two-row dynamic program.
func EditDistance(a, b string) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		ca := a[i-1]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if ca == b[j-1] {
				cost = 0
			}
			v := prev[j-1] + cost
			if d := prev[j] + 1; d < v {
				v = d
			}
			if d := cur[j-1] + 1; d < v {
				v = d
			}
			cur[j] = v
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// EditDistanceWithin returns ed(a, b) if it is at most tau, or −1
// otherwise. It runs the banded (Ukkonen) dynamic program over a
// diagonal band of width 2·tau+1, the standard verification kernel for
// thresholded edit distance search.
func EditDistanceWithin(a, b string, tau int) int {
	if tau < 0 {
		return -1
	}
	la, lb := len(a), len(b)
	if la-lb > tau || lb-la > tau {
		return -1
	}
	if la == 0 {
		return lb // ≤ tau by the length check
	}
	if lb == 0 {
		return la
	}
	const inf = 1 << 30
	width := 2*tau + 1
	// The band is 2τ+1 wide, so the two rows live on the stack for
	// every realistic τ; only degenerate thresholds fall back to the
	// heap. Verification runs once per candidate, which made these two
	// rows the dominant allocation of a whole search. The buffers are
	// sized to the thresholds searches actually use — zeroing a larger
	// array per call (duffzero) showed up in profiles.
	var prevBuf, curBuf [16]int
	var prev, cur []int
	if width <= len(prevBuf) {
		prev, cur = prevBuf[:width], curBuf[:width]
	} else {
		// ed(a, b) ≤ max(la, lb), so a wider band changes nothing; the
		// clamp keeps a τ read from a snapshot from sizing the rows.
		tau = min(tau, max(la, lb))
		width = 2*tau + 1
		prev, cur = make([]int, width), make([]int, width)
	}
	// prev[k] = D(i-1, j) where j = (i-1) + (k - tau).
	for k := range prev {
		j := 0 + (k - tau)
		if j >= 0 && j <= tau {
			prev[k] = j // D(0, j) = j
		} else {
			prev[k] = inf
		}
	}
	for i := 1; i <= la; i++ {
		rowMin := inf
		for k := 0; k < width; k++ {
			j := i + (k - tau)
			if j < 0 || j > lb {
				cur[k] = inf
				continue
			}
			if j == 0 {
				cur[k] = i
				rowMin = min(rowMin, i)
				continue
			}
			// Substitution from D(i-1, j-1): same k offset.
			v := inf
			if prev[k] < inf {
				cost := 1
				if a[i-1] == b[j-1] {
					cost = 0
				}
				v = prev[k] + cost
			}
			// Deletion from D(i-1, j): offset k+1 in prev.
			if k+1 < width && prev[k+1] < inf {
				v = min(v, prev[k+1]+1)
			}
			// Insertion from D(i, j-1): offset k-1 in cur.
			if k-1 >= 0 && cur[k-1] < inf {
				v = min(v, cur[k-1]+1)
			}
			cur[k] = v
			rowMin = min(rowMin, v)
		}
		if rowMin > tau {
			return -1
		}
		prev, cur = cur, prev
	}
	k := lb - la + tau
	if k < 0 || k >= width || prev[k] > tau {
		return -1
	}
	return prev[k]
}

// charMask returns the alphabet bit vector of the §6.3 content-based
// filter: bit (c mod 64) is set iff the string contains byte c. Two
// strings with ed ≤ t satisfy popcount(maskA xor maskB) ≤ 2t.
func charMask(s string) uint64 {
	var m uint64
	for i := 0; i < len(s); i++ {
		m |= 1 << (s[i] & 63)
	}
	return m
}

// contentLowerBound returns ⌈popcount(ma xor mb)/2⌉, a lower bound on
// the edit distance between the strings behind the two masks.
func contentLowerBound(ma, mb uint64) int {
	return (bits.OnesCount64(ma^mb) + 1) / 2
}

// minGramBoxLB returns the content-based lower bound of a §6.3 box: the
// minimum, over all substrings of text starting in
// [p−tau, p+tau] with length in [1, kappa+tau], of
// ⌈H(mask(gram), mask(substring))/2⌉. gram has length kappa and sits at
// position p in its own string. The truly aligned segment of any pair
// with ed ≤ τ is among the candidates, so the result never exceeds the
// gram's true alignment cost.
func minGramBoxLB(gramMask uint64, kappa int, p int, text string, tau int) int {
	lo := p - tau
	if lo < 0 {
		lo = 0
	}
	hi := p + tau
	if hi > len(text)-1 {
		hi = len(text) - 1
	}
	if hi < lo {
		// No substring can align; the box is at least the cost of
		// deleting the whole gram.
		return kappa
	}
	best := kappa // deleting the gram entirely always "aligns" it
	for u := lo; u <= hi; u++ {
		var m uint64
		maxLen := kappa + tau
		if u+maxLen > len(text) {
			maxLen = len(text) - u
		}
		// Grow the substring one byte at a time, maintaining its mask.
		for ln := 1; ln <= maxLen; ln++ {
			m |= 1 << (text[u+ln-1] & 63)
			if lb := contentLowerBound(gramMask, m); lb < best {
				best = lb
				if best == 0 {
					return 0
				}
			}
		}
	}
	return best
}

// appendPosMasks appends to buf, flattened with stride winLen = κ+τ,
// the prefix substring masks mask(s[u:u+ln]) for every position u and
// every length ln = 1..winLen, and returns buf. Lengths running past
// the end of s repeat the last valid mask, which leaves minima
// unchanged and keeps the probe loop branch-free. A search builds
// this table once for its query into pooled scratch; every case-A box
// of every candidate then probes it instead of rebuilding the masks
// per window, which is what minGramBoxLB used to do per candidate.
func appendPosMasks(buf []uint64, s string, winLen int) []uint64 {
	for u := 0; u < len(s); u++ {
		var m uint64
		for k := 0; k < winLen; k++ {
			if u+k < len(s) {
				m |= 1 << (s[u+k] & 63)
			}
			buf = append(buf, m)
		}
	}
	return buf
}

// minGramBoxLBMasks is minGramBoxLB evaluated against precomputed
// per-position prefix masks (buildPosMasks of the text, stride
// winLen = κ+τ): identical results, no per-window mask rebuild.
func minGramBoxLBMasks(gramMask uint64, kappa, p int, posMasks []uint64, textLen, winLen, tau int) int {
	lo := p - tau
	if lo < 0 {
		lo = 0
	}
	hi := p + tau
	if hi > textLen-1 {
		hi = textLen - 1
	}
	if hi < lo {
		// No substring can align; the box is at least the cost of
		// deleting the whole gram.
		return kappa
	}
	// Track the raw xor popcount minimum and round up once at the end:
	// x ↦ ⌈x/2⌉ is monotone, so the minima commute. The inner loop is
	// a pure min-fold (no rounding, no branch on best), which the
	// compiler turns into well-pipelined popcount+cmov chains.
	rawBest := 2 * kappa // deleting the gram entirely always "aligns" it
	for _, m := range posMasks[lo*winLen : (hi+1)*winLen] {
		rawBest = min(rawBest, bits.OnesCount64(gramMask^m))
	}
	return (rawBest + 1) / 2
}

// minGramBoxLBText is the probe for boxes whose text side is an
// indexed candidate string: the prefix masks are folded from the
// string bytes on the fly — the same branch-light min-fold as
// minGramBoxLBMasks, identical results. A candidate's bytes are one
// or two cache lines that verification touches anyway, where a
// precomputed mask table would be ~winLen·8 cold bytes per position;
// measured under the trajectory workloads (all backends resident),
// the byte fold wins on the candidate side while the precomputed
// table wins on the query side, which every candidate's case-A boxes
// share.
func minGramBoxLBText(gramMask uint64, kappa, p int, text string, winLen, tau int) int {
	lo := p - tau
	if lo < 0 {
		lo = 0
	}
	hi := p + tau
	if hi > len(text)-1 {
		hi = len(text) - 1
	}
	if hi < lo {
		return kappa
	}
	rawBest := 2 * kappa
	for u := lo; u <= hi; u++ {
		maxLen := winLen
		if u+maxLen > len(text) {
			maxLen = len(text) - u
		}
		var m uint64
		for _, c := range []byte(text[u : u+maxLen]) {
			m |= 1 << (c & 63)
			rawBest = min(rawBest, bits.OnesCount64(gramMask^m))
		}
	}
	return (rawBest + 1) / 2
}

// minGramEditExact returns the exact §6.3 box value used by the Pivotal
// alignment filter: the minimum edit distance from gram to any
// substring text[u..v] with u, v in the ±τ window around p and
// v−u ≤ κ+τ−1. The dynamic program makes both substring endpoints free
// inside the window, which relaxes (never raises) the minimum and keeps
// the filter complete.
func minGramEditExact(gram string, p int, text string, tau int) int {
	kappa := len(gram)
	w0 := p - tau
	if w0 < 0 {
		w0 = 0
	}
	w1 := p + kappa - 1 + tau
	if w1 > len(text)-1 {
		w1 = len(text) - 1
	}
	if w1 < w0 {
		return kappa
	}
	window := text[w0 : w1+1]
	// dp[j] = min edit distance of gram[0..i) to a substring of window
	// ending at j (free start). Answer: min over j of dp at i = κ.
	// The window spans at most κ+2τ bytes, so the two rows live on the
	// stack for every realistic (κ, τ); only degenerate configurations
	// fall back to the heap.
	n := len(window)
	var prevBuf, curBuf [32]int
	var prev, cur []int
	if n+1 <= len(prevBuf) {
		prev, cur = prevBuf[:n+1], curBuf[:n+1]
	} else {
		prev, cur = make([]int, n+1), make([]int, n+1)
	}
	// Row 0: empty gram matches the empty substring ending anywhere.
	for j := range prev {
		prev[j] = 0
	}
	for i := 1; i <= kappa; i++ {
		cur[0] = i
		g := gram[i-1]
		for j := 1; j <= n; j++ {
			cost := 1
			if g == window[j-1] {
				cost = 0
			}
			v := prev[j-1] + cost
			if d := prev[j] + 1; d < v {
				v = d
			}
			if d := cur[j-1] + 1; d < v {
				v = d
			}
			cur[j] = v
		}
		prev, cur = cur, prev
	}
	best := prev[0]
	for _, v := range prev[1:] {
		if v < best {
			best = v
		}
	}
	return best
}
