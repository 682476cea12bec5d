package graph

import (
	"math"
	"slices"
)

// headIndex lists every part on exactly one list, so a search reaches
// the parts that can head a chain without reading the others. Part
// p = id·m + i is keyed by its rarest non-Wildcard vertex label: of its
// labels, the one the fewest parts carry. A part with no such label
// (all Wildcards, or empty) is on the last list, which every search
// probes. A head's box is 0 only if its label bound is 0, which needs
// every label of the part in q; so the lists of q's labels and the last
// list together hold every head. List k (a vdict id, or len(vdict) for
// the last list) is parts[off[k]:off[k+1]], ascending.
type headIndex struct {
	off   []int32
	parts []int32
}

// buildHeadIndex lists the nparts parts of s by their rarest label.
func buildHeadIndex(s *partSigs, nparts int) headIndex {
	runs, off := s.runs, s.off
	carriers := make([]uint64, len(s.vdict))
	for p := range nparts {
		for _, r := range runs[off[2*p]:off[2*p+1]] {
			carriers[r.id]++
		}
	}
	// A part's key is its label with the fewest carriers, the smallest
	// id on a tie: the minimum of carriers<<32 | id, taken branch-free.
	none := int32(len(s.vdict))
	h := headIndex{off: make([]int32, none+2)}
	keys := make([]int32, nparts)
	for p := range nparts {
		best := uint64(math.MaxUint64)
		for _, r := range runs[off[2*p]:off[2*p+1]] {
			best = min(best, carriers[r.id]<<32|uint64(r.id))
		}
		k := none
		if best != math.MaxUint64 {
			k = int32(uint32(best))
		}
		keys[p] = k
		h.off[k+1]++
	}
	for k := 1; k < len(h.off); k++ {
		h.off[k] += h.off[k-1]
	}
	// Fill each list in part order through a moving cursor per list.
	next := slices.Clone(h.off[:len(h.off)-1])
	h.parts = make([]int32, nparts)
	for p, k := range keys {
		h.parts[next[k]] = int32(p)
		next[k]++
	}
	return h
}

// mark sets bit p − plo of marks for every part p in [plo, phi) on the
// lists of q's labels (the labels qv counts; its Wildcard count is not
// a list) and on the last list, and returns the number of postings it
// read.
func (h *headIndex) mark(qv []int32, plo, phi int, marks []uint64) int {
	none := len(h.off) - 2
	probes := h.markList(none, plo, phi, marks)
	for k, c := range qv[:none] {
		if c > 0 {
			probes += h.markList(k, plo, phi, marks)
		}
	}
	return probes
}

// markList is mark for list k alone.
func (h *headIndex) markList(k, plo, phi int, marks []uint64) int {
	list := h.parts[h.off[k]:h.off[k+1]]
	start, _ := slices.BinarySearch(list, int32(plo))
	probes := 0
	for _, p := range list[start:] {
		if int(p) >= phi {
			break
		}
		b := int(p) - plo
		marks[b>>6] |= 1 << (b & 63)
		probes++
	}
	return probes
}
