// Package core implements the pigeonring principle of Qin and Xiao
// (VLDB 2018), a strict generalization of the pigeonhole principle for
// thresholded similarity search.
//
// # The principle
//
// The classic pigeonhole principle states that if m real numbers
// b_0, ..., b_{m-1} sum to at most n, then some b_i is at most n/m.
// Filters built on it are weak: an object passes as soon as a single
// box is within quota, no matter how large the other boxes are.
//
// The pigeonring principle arranges the boxes clockwise in a ring
// (b_0 follows b_{m-1}) and constrains runs of consecutive boxes,
// called chains. Its basic form (Theorem 2 of the paper) states:
//
//	If Σ b_i ≤ n, then for every chain length l in [1..m] there exist
//	l consecutive boxes whose sum is at most l·n/m.
//
// Its strong form (Theorem 3) is stronger still:
//
//	If Σ b_i ≤ n, then for every l in [1..m] there exists a chain of
//	length l all of whose prefixes are within quota: the chain starting
//	at some box i satisfies Σ_{j=i}^{i+l'-1} b_j ≤ l'·n/m for every
//	prefix length l' in [1..l].
//
// Such a chain is called prefix-viable. Setting l = 1 recovers the
// pigeonhole principle, so every pigeonhole-based filter can be upgraded
// to a pigeonring filter, and the candidates produced are guaranteed to
// be a subset of the pigeonhole candidates (Lemmas 1 and 4 of the paper).
//
// # Filters
//
// A τ-selection problem asks for all database objects x with
// f(x, q) ≤ τ (or ≥ τ) for a query q. A filtering instance decomposes f
// into m box functions with Σ b_i(x, q) bounded by D(τ) for every result,
// and then prunes any x that has no prefix-viable chain.
//
// The Filter type captures the full generality of Section 4 of the paper:
//
//   - uniform thresholds t_i = n/m (Theorems 2 and 3),
//   - variable threshold allocation, Σ t_i = n (Theorem 6),
//   - integer reduction, Σ t_i = n−m+1 with a slack of l'−1 added to each
//     prefix quota (Theorem 7),
//   - and the ≥-duals of all of the above, for problems whose results
//     must reach a bound, as set similarity's must share at least τ
//     tokens.
//
// Checking is incremental: boxes are consumed through the BoxValues
// interface, so a costly box value can be computed lazily and checking
// stops at the first violated prefix. HasPrefixViableChain applies the
// Corollary 2 skip from Section 7 of the paper: when the chain starting
// at i first violates its quota at prefix length l', no chain starting
// in [i+1 .. i+l'-1] can be prefix-viable, so those starts are skipped.
//
// # Framework
//
// The ⟨F, B, D⟩ filtering framework of Section 5 is provided by the
// Instance type together with empirical completeness and tightness
// checkers (Lemmas 6 and 7). Completeness guarantees no result is ever
// missed; tightness additionally guarantees that with l = m the
// candidates are exactly the results.
//
// # Role in the repository
//
// This package is the theorem-level reference. No search backend
// imports it: hamming, setsim, strdist and graph each implement the
// same filter inside their own kernel, specialised to their boxes. The
// package is checked by its own tests and exercised by
// examples/quickstart, and setsim's kernel_test.go keeps Filter as a
// parity reference for the set kernel's chain check.
package core
