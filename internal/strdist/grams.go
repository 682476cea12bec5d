package strdist

import (
	"fmt"
	"slices"
	"sort"
)

// Gram is a positional q-gram: the substring s[Pos : Pos+κ] with its
// global-order id.
type Gram struct {
	ID  int32
	Pos int32
}

// GramDict assigns global-order ids to κ-grams: ascending id means
// ascending corpus frequency, so the front of a sorted gram list holds
// the rarest grams — the convention of prefix filtering.
type GramDict struct {
	kappa int
	ids   map[string]int32
}

// Kappa returns the gram length.
func (d *GramDict) Kappa() int { return d.kappa }

// Size returns the number of distinct grams.
func (d *GramDict) Size() int { return len(d.ids) }

// BuildGramDict counts the κ-grams of the corpus and ranks them by
// ascending frequency (ties by gram text for determinism).
func BuildGramDict(corpus []string, kappa int) (*GramDict, error) {
	if kappa < 1 {
		return nil, fmt.Errorf("strdist: gram length %d < 1", kappa)
	}
	counts := make(map[string]int)
	for _, s := range corpus {
		for i := 0; i+kappa <= len(s); i++ {
			counts[s[i:i+kappa]]++
		}
	}
	type gf struct {
		g string
		n int
	}
	all := make([]gf, 0, len(counts))
	for g, n := range counts {
		all = append(all, gf{g, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n < all[j].n
		}
		return all[i].g < all[j].g
	})
	d := &GramDict{kappa: kappa, ids: make(map[string]int32, len(all))}
	for id, e := range all {
		d.ids[e.g] = int32(id)
	}
	return d, nil
}

// BuildGramDictFromOrder builds a dictionary with an explicit global
// order: grams[i] receives id i. Snapshots restore a stored order
// through it, and tests use it to reproduce the paper's lexicographic
// examples.
func BuildGramDictFromOrder(grams []string, kappa int) (*GramDict, error) {
	if kappa < 1 {
		return nil, fmt.Errorf("strdist: gram length %d < 1", kappa)
	}
	d := &GramDict{kappa: kappa, ids: make(map[string]int32, len(grams))}
	for i, g := range grams {
		if len(g) != kappa {
			return nil, fmt.Errorf("strdist: gram %q has length %d, want %d", g, len(g), kappa)
		}
		if _, dup := d.ids[g]; dup {
			return nil, fmt.Errorf("strdist: duplicate gram %q", g)
		}
		d.ids[g] = int32(i)
	}
	return d, nil
}

// Extract returns the positional grams of s sorted by the global order
// (rarest first; ties by position). Grams absent from the dictionary
// receive fresh negative ids — they are rarer than everything indexed
// and can never match an indexed gram, but they still participate in
// ordering and prefix selection.
func (d *GramDict) Extract(s string) []Gram {
	n := len(s) - d.kappa + 1
	if n <= 0 {
		return nil
	}
	return d.ExtractAppend(make([]Gram, 0, n), s)
}

// ExtractAppend is Extract writing into dst (reusing its capacity)
// instead of allocating a fresh slice; the result aliases dst's
// storage. It exists for pooled per-search scratch on the join path.
func (d *GramDict) ExtractAppend(dst []Gram, s string) []Gram {
	grams := dst[:0]
	n := len(s) - d.kappa + 1
	if n <= 0 {
		return grams
	}
	unknown := int32(-1)
	// The unknown-gram table is only materialized when a gram misses
	// the dictionary; queries drawn from the indexed corpus never pay
	// for it.
	var unknownIDs map[string]int32
	for i := 0; i < n; i++ {
		g := s[i : i+d.kappa]
		id, ok := d.ids[g]
		if !ok {
			id, ok = unknownIDs[g]
			if !ok {
				id = unknown
				unknown--
				if unknownIDs == nil {
					unknownIDs = make(map[string]int32)
				}
				unknownIDs[g] = id
			}
		}
		grams = append(grams, Gram{ID: id, Pos: int32(i)})
	}
	slices.SortFunc(grams, func(a, b Gram) int {
		if a.ID != b.ID {
			return int(a.ID) - int(b.ID)
		}
		return int(a.Pos) - int(b.Pos)
	})
	return grams
}

// Prefix returns the first κτ+1 grams of the sorted gram list (all of
// them if fewer exist) — the q-gram prefix of §6.3.
func Prefix(sorted []Gram, kappa, tau int) []Gram {
	n := kappa*tau + 1
	if n > len(sorted) {
		n = len(sorted)
	}
	return sorted[:n]
}

// SelectPivotal chooses τ+1 position-disjoint grams from the prefix by
// the earliest-endpoint greedy scan, returned in ascending position
// order — the ring order of the §6.3 boxes. Because any gram overlaps
// at most κ prefix grams to its right, a full κτ+1 prefix always yields
// τ+1 disjoint grams; shorter prefixes may yield fewer, in which case
// the caller must fall back to direct verification.
func SelectPivotal(prefix []Gram, kappa, tau int) []Gram {
	pivotal, _ := SelectPivotalAppend(nil, make([]Gram, 0, min(tau+1, len(prefix))), prefix, kappa, tau)
	return pivotal
}

// SelectPivotalAppend is SelectPivotal using caller-provided scratch:
// byPos receives the position-sorted copy of the prefix and dst the
// chosen grams, both reusing their capacity. The returned pivotal
// slice aliases dst; the grown byPos comes back so the caller can keep
// it pooled.
func SelectPivotalAppend(byPos, dst, prefix []Gram, kappa, tau int) (pivotal, byPosOut []Gram) {
	byPos = append(byPos[:0], prefix...)
	slices.SortFunc(byPos, func(a, b Gram) int { return int(a.Pos) - int(b.Pos) })
	dst = dst[:0]
	lastEnd := int32(-1)
	for _, g := range byPos {
		if g.Pos <= lastEnd {
			continue
		}
		dst = append(dst, g)
		lastEnd = g.Pos + int32(kappa) - 1
		if len(dst) == tau+1 {
			break
		}
	}
	return dst, byPos
}
