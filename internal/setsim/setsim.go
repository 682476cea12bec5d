// Package setsim implements thresholded set similarity search (Problem 3
// of the pigeonring paper) with three pigeonhole-principle baselines —
// pkwise, AdaptSearch (in its AllPairs/PPJoin search configuration, the
// form the paper benchmarks), and PartAlloc — plus the pigeonring
// upgrade "Ring" built on top of pkwise exactly as §6.2 prescribes.
//
// Two similarity measures are supported: plain overlap |x ∩ q| ≥ τ (the
// measure the paper's examples use) and Jaccard, which the experiments
// use and which converts to a per-pair overlap threshold
// ⌈τ·(|x|+|q|)/(1+τ)⌉.
//
// The ⟨F, B, D⟩ instance for pkwise/Ring follows §6.2: the token
// universe is split into m−1 classes; each object is cut into a prefix
// (by the class-coverage rule) and a suffix. Box 0 is the suffix
// overlap; box k ≥ 1 is the overlap of class-k prefix tokens. With the
// orientation rule (the side whose prefix ends first contributes the
// suffix box), ‖B(x,q)‖₁ = |x ∩ q| exactly, so the instance is tight.
// Thresholds follow the paper: t_0 = |q|−p_q+1, t_k = k when the query
// prefix holds at least k class-k tokens and cnt+1 otherwise, giving
// Σt = t + m − 1 for Theorem 7's ≥ dual.
//
// Box 0 is expensive, so it is never computed: the filter uses the
// cheap upper bound b_0 ≤ min(suffix length, partner size) instead.
// Substituting an upper bound is sound for ≥-direction filters, and it
// subsumes the paper's "whenever we are to compute b_0, verify
// directly" rule while keeping the implementation exact even when the
// only strong-form witness chain starts at the suffix box.
package setsim

import (
	"fmt"
	"math"

	"repro/internal/tokenset"
)

// Measure selects the similarity function.
type Measure int

const (
	// Jaccard selects J(x,q) ≥ τ with τ in (0, 1].
	Jaccard Measure = iota
	// Overlap selects |x ∩ q| ≥ τ with τ a positive integer.
	Overlap
)

// Config fixes the search problem an index is built for. Partition-based
// and prefix-based indexes depend on the threshold, so — like the
// paper's competitors — a DB is built per (measure, τ) setting.
type Config struct {
	Measure Measure
	Tau     float64
	// M is the pigeonring box count for pkwise/Ring: m−1 token classes
	// plus the suffix box. The paper uses M = 5 (4 classes).
	M int
	// Class optionally overrides the token→class assignment; it must
	// return a class in [1..M-1]. The default hashes the token id.
	Class func(tok int32) int
}

// maxM bounds the box count (the paper uses 5) so that a configuration
// read from a file cannot size the n×M count table arbitrarily.
const maxM = 1 << 12

func (c Config) validate() error {
	switch c.Measure {
	case Jaccard:
		if !(c.Tau > 0 && c.Tau <= 1) {
			return fmt.Errorf("setsim: jaccard τ=%v out of (0,1]", c.Tau)
		}
	case Overlap:
		if c.Tau < 1 || c.Tau > math.MaxInt32 || c.Tau != math.Trunc(c.Tau) {
			return fmt.Errorf("setsim: overlap τ=%v must be a positive integer", c.Tau)
		}
	default:
		return fmt.Errorf("setsim: unknown measure %d", c.Measure)
	}
	if c.M < 2 || c.M > maxM {
		return fmt.Errorf("setsim: need 2 ≤ M ≤ %d boxes, got %d", maxM, c.M)
	}
	return nil
}

// classOf returns the class of a token in [1..M-1].
func (c Config) classOf(tok int32) int {
	if c.Class != nil {
		return c.Class(tok)
	}
	// Knuth multiplicative hash keeps classes balanced even though ids
	// are frequency-ranked.
	h := uint32(tok) * 2654435761
	return int(h%uint32(c.M-1)) + 1
}

// pairThreshold returns the overlap a specific pair must reach.
func (c Config) pairThreshold(sx, sq int) int {
	if c.Measure == Overlap {
		return int(c.Tau)
	}
	return tokenset.RequiredOverlap(sx, sq, c.Tau)
}

// minThreshold returns the loosest overlap threshold any compatible
// partner can impose on a set of size s; prefixes built against it are
// valid for every partner.
func (c Config) minThreshold(s int) int {
	if c.Measure == Overlap {
		return int(c.Tau)
	}
	return tokenset.MinRequiredOverlap(s, c.Tau)
}

// sizeBounds returns the compatible partner-size interval for a query
// of size sq.
func (c Config) sizeBounds(sq int) (lo, hi int) {
	if c.Measure == Overlap {
		return int(c.Tau), math.MaxInt32
	}
	return tokenset.SizeBounds(sq, c.Tau)
}

// Stats reports the work a search performed.
type Stats struct {
	// Candidates is the number of objects that reached verification.
	Candidates int
	// Results is the number of objects meeting the similarity threshold.
	Results int
	// Probes is the number of posting-list entries scanned.
	Probes int
	// Touched is the number of distinct objects seen during counting.
	Touched int
	// BoxChecks counts box evaluations in the pigeonring step.
	BoxChecks int
}

// SearchLinear scans all sets and returns ids meeting the threshold, in
// ascending order. It is the ground truth for tests and the naïve cost
// reference.
func SearchLinear(sets []tokenset.Set, q tokenset.Set, cfg Config) []int {
	var out []int
	for id, x := range sets {
		t := cfg.pairThreshold(len(x), len(q))
		if cfg.Measure == Jaccard {
			lo, hi := cfg.sizeBounds(len(q))
			if len(x) < lo || len(x) > hi {
				continue
			}
		}
		if tokenset.OverlapAtLeast(x, q, t) {
			out = append(out, id)
		}
	}
	return out
}
