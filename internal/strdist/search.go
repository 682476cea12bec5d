package strdist

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/pairs"
)

// Options configure a search over an edit-distance DB.
type Options struct {
	// Ring enables the pigeonring filter; false reproduces the Pivotal
	// baseline (pivotal prefix filter + alignment filter).
	Ring bool
	// ChainLength is the pigeonring chain length l (only used when Ring
	// is true). The paper finds l = min(3, τ+1) best.
	ChainLength int
	// SkipVerify stops after filtering: Cand1/Cand2 are counted but no
	// verification runs and no results are returned (the "Cand." series
	// of the paper's time plots).
	SkipVerify bool
}

// PivotalOptions returns the configuration of the Pivotal baseline.
func PivotalOptions() Options { return Options{} }

// RingOptions returns the pigeonring configuration with chain length l.
func RingOptions(l int) Options { return Options{Ring: true, ChainLength: l} }

// Stats reports the work a search performed.
type Stats struct {
	// Cand1 is the number of objects passing the pivotal prefix filter
	// (the paper's "Cand-1").
	Cand1 int
	// Cand2 is the number of Cand-1 objects passing the second filter:
	// the alignment filter for Pivotal, the chain filter for Ring. These
	// are the objects that reach verification.
	Cand2 int
	// Results is the number of objects with ed(x, q) ≤ τ.
	Results int
	// Probes is the number of posting entries scanned.
	Probes int
	// BoxChecks counts box evaluations (lower-bound or exact).
	BoxChecks int
	// Fallback is the number of objects routed around the filters
	// (short strings, degenerate queries) straight to verification.
	Fallback int
}

// DB is an edit-distance search index built for a fixed threshold τ and
// gram length κ, holding the Pivotal indexes the Ring filter also uses.
//
// The layout is flat so that a probe and a box check each touch one
// contiguous record. Both inverted indexes are CSR arrays keyed by gram
// id, and every posting carries what the probe loop tests — the string's
// last prefix gram (the §6.3 case split), its position and the string's
// length (the length filter) — so a posting that fails them never reads
// per-string data. The τ+1 pivotal boxes of every indexed string form
// one record in an arena, addressed by the slot its pivotal postings
// carry.
type DB struct {
	kappa, tau int
	strs       []string
	dict       *GramDict

	// boxes holds one record of recLen words per indexed string, the
	// string in slot s owning boxes[s·recLen : (s+1)·recLen]: the char
	// masks of its τ+1 pivotal grams in position order, then their
	// positions packed four 16-bit fields to a word (boxPos) — 32 bytes
	// at τ = 2. Only indexed strings have a slot, and each holds at
	// least κ(τ+1) bytes, so the arena is bounded by the corpus size
	// whatever τ claims.
	boxes  []uint64
	recLen int
	// winLen = κ+τ is the box-probe window stride: the length cap of
	// the substrings a §6.3 box minimizes over, and the stride of the
	// query's precomputed position-mask table (appendPosMasks). An
	// index-time per-string mask table was measured too: with every
	// backend resident it loses to folding the candidate's bytes
	// directly — ~winLen·8 cold bytes per window position against one
	// or two cache lines verification touches anyway — so only the
	// query side, which all case-A boxes of a search share, keeps a
	// precomputed table.
	winLen int
	// strMasks holds every indexed string's whole-string char mask:
	// ed(x, q) ≥ ⌈H(mask(x), mask(q))/2⌉ (the §6.3 content bound at
	// string granularity), so one popcount skips the banded DP for
	// most candidates that would fail verification anyway.
	strMasks []uint64

	// piv lists, per gram id g, the occurrences of g as a pivotal gram:
	// piv[pivOff[g]:pivOff[g+1]], ascending by string id.
	pivOff []int
	piv    []pivPosting
	// pre lists, per gram id g, the occurrences of g in a string's
	// prefix: pre[preOff[g]:preOff[g+1]], ascending by string id.
	preOff []int
	pre    []posting
	// short holds, ascending, the ids of strings the signature scheme
	// does not index — too short to carry τ+1 pivotal grams, longer
	// than a posting's 16-bit length and position fields, or holding a
	// gram the dictionary lacks (whose order against a query's grams is
	// undefined); they bypass filtering.
	short []int32
	// scratch pools per-search working memory (strScratch) so the hot
	// path stays allocation-free across calls.
	scratch sync.Pool
}

// strScratch is the per-search working memory a DB hands out from its
// pool: the processed-id map (cleared via the marked list on release),
// the query pivotal masks, and the reusable result buffer (Search
// copies it into an exact-size slice before returning).
type strScratch struct {
	processed []uint8
	marked    []int32
	qMasks    []uint64
	qPosMasks []uint64
	boxVal    []int
	// qGrams/qByPos/qPiv hold the query's gram extraction and pivotal
	// selection for every entry point — SearchRangeAppend is both the
	// engine's plain search and the join's per-row probe, where the
	// allocations of Extract/SelectPivotal would dominate the cost.
	qGrams  []Gram
	qByPos  []Gram
	qPiv    []Gram
	results []int
	// dists holds the verified edit distance of each entry of results,
	// populated only on the SearchDist path.
	dists []int
}

func (db *DB) getScratch() *strScratch {
	return db.scratch.Get().(*strScratch)
}

func (db *DB) putScratch(s *strScratch) {
	for _, id := range s.marked {
		s.processed[id] = 0
	}
	s.marked = s.marked[:0]
	s.qMasks = s.qMasks[:0]
	s.qPosMasks = s.qPosMasks[:0]
	s.qGrams = s.qGrams[:0]
	s.qByPos = s.qByPos[:0]
	s.qPiv = s.qPiv[:0]
	s.results = s.results[:0]
	s.dists = s.dists[:0]
	db.scratch.Put(s)
}

// posting is one occurrence of a gram in an indexed string, carrying
// everything the probe loop tests before it decides the string: the
// id, the string's last prefix gram id, the gram's position and the
// string's length (12 bytes).
type posting struct {
	id, last int32
	pos, len uint16
}

// pivPosting is a pivotal-gram posting: a case-A hit, which also needs
// the string's box slot.
type pivPosting struct {
	posting
	slot int32
}

func (p posting) key() int32 { return p.id }

// boxPos returns the position of pivotal gram j from a box record
// holding m masks.
func boxPos(rec []uint64, m, j int) int {
	return int(uint16(rec[m+j/4] >> (16 * (j % 4))))
}

// NewDB indexes strs for threshold tau with κ-grams ordered by dict.
// Pass a dict built on the same corpus (BuildGramDict) or an explicit
// order (BuildGramDictFromOrder: a snapshot's stored order, a paper
// example).
func NewDB(strs []string, dict *GramDict, tau int) (*DB, error) {
	if tau < 0 {
		return nil, fmt.Errorf("strdist: negative threshold %d", tau)
	}
	if dict == nil {
		return nil, fmt.Errorf("strdist: nil gram dictionary")
	}
	kappa := dict.Kappa()
	db := &DB{
		kappa: kappa, tau: tau, strs: strs, dict: dict,
		winLen:   kappa + tau,
		strMasks: make([]uint64, len(strs)),
	}
	m := tau + 1
	db.recLen = m + (m+3)/4
	fullPrefix := kappa*tau + 1
	// Postings are collected in id order with their gram ids as keys,
	// then bucketed by a stable counting sort, so every list stays
	// ascending by id.
	var (
		piv              []pivPosting
		pre              []posting
		pivKeys, preKeys []int32
		grams, byPos     []Gram
		pivotal          []Gram
	)
	for id, s := range strs {
		db.strMasks[id] = charMask(s)
		if len(s) > math.MaxUint16 {
			db.short = append(db.short, int32(id))
			continue
		}
		grams = dict.ExtractAppend(grams, s)
		prefix := Prefix(grams, kappa, tau)
		pivotal, byPos = SelectPivotalAppend(byPos, pivotal, prefix, kappa, tau)
		if len(prefix) < fullPrefix || len(pivotal) < m || prefix[0].ID < 0 {
			db.short = append(db.short, int32(id))
			continue
		}
		p := posting{id: int32(id), last: prefix[len(prefix)-1].ID, len: uint16(len(s))}
		slot := int32(len(db.boxes) / db.recLen)
		db.boxes = append(db.boxes, make([]uint64, db.recLen)...)
		rec := db.boxes[len(db.boxes)-db.recLen:]
		for j, g := range pivotal {
			rec[j] = charMask(s[g.Pos : g.Pos+int32(kappa)])
			rec[m+j/4] |= uint64(g.Pos) << (16 * (j % 4))
			p.pos = uint16(g.Pos)
			piv = append(piv, pivPosting{p, slot})
			pivKeys = append(pivKeys, g.ID)
		}
		for _, g := range prefix {
			p.pos = uint16(g.Pos)
			pre = append(pre, p)
			preKeys = append(preKeys, g.ID)
		}
	}
	db.boxes = slices.Clone(db.boxes) // drop append's spare capacity
	db.pivOff, db.piv = bucket(dict.Size(), pivKeys, piv)
	db.preOff, db.pre = bucket(dict.Size(), preKeys, pre)
	db.scratch.New = func() any {
		return &strScratch{processed: make([]uint8, len(db.strs))}
	}
	return db, nil
}

// bucket groups post by key into CSR form: the entries with key g are
// out[off[g]:off[g+1]], in their order in post. Keys are gram ids in
// [0, size) — indexed strings hold no gram outside the dictionary.
func bucket[P any](size int, keys []int32, post []P) (off []int, out []P) {
	off = make([]int, size+1)
	for _, k := range keys {
		off[k+1]++
	}
	for g := range size {
		off[g+1] += off[g]
	}
	next := slices.Clone(off[:size])
	out = make([]P, len(post))
	for i, k := range keys {
		out[next[k]] = post[i]
		next[k]++
	}
	return off, out
}

// list returns the CSR list of gram id g: empty for an id outside the
// dictionary, which is how a query's unknown grams (negative ids)
// probe.
func list[P any](off []int, post []P, g int32) []P {
	if g < 0 || int(g) >= len(off)-1 {
		return nil
	}
	return post[off[g]:off[g+1]]
}

// Len returns the number of indexed strings.
func (db *DB) Len() int { return len(db.strs) }

// Tau returns the threshold the index was built for.
func (db *DB) Tau() int { return db.tau }

// String returns the indexed string with the given id.
func (db *DB) String(id int) string { return db.strs[id] }

// Search returns the ids of all strings with ed(x, q) ≤ τ, ascending.
func (db *DB) Search(q string, opt Options) ([]int, Stats, error) {
	var st Stats
	s := db.getScratch()
	defer db.putScratch(s)
	db.filter(s, q, opt, 0, len(db.strs), false, &st)
	return pairs.SortedIDs(s.results), st, nil
}

// SearchDist is Search additionally reporting each result's exact edit
// distance, aligned index-for-index with the returned ids. The pairs
// come back in unspecified order — the engine's top-k planner reorders
// by distance anyway, so the id sort is skipped. With SkipVerify set
// no results (and so no distances) are produced.
func (db *DB) SearchDist(q string, opt Options) ([]int, []int, Stats, error) {
	var st Stats
	s := db.getScratch()
	defer db.putScratch(s)
	db.filter(s, q, opt, 0, len(db.strs), true, &st)
	return slices.Clone(s.results), slices.Clone(s.dists), st, nil
}

// SearchRangeAppend runs the threshold search restricted to ids in
// [lo, hi), appending the qualifying ids in ascending order to dst and
// accumulating statistics into st. It is the join engine's per-tile
// probe and, over [0, Len()), the engine's plain search: rows sharing
// dst and st reuse pooled scratch instead of allocating per call.
func (db *DB) SearchRangeAppend(q string, opt Options, lo, hi int, dst []int64, st *Stats) ([]int64, error) {
	s := db.getScratch()
	defer db.putScratch(s)
	db.filter(s, q, opt, lo, hi, false, st)
	slices.Sort(s.results)
	dst = slices.Grow(dst, len(s.results))
	for _, id := range s.results {
		dst = append(dst, int64(id))
	}
	return dst, nil
}

// filter is the one search loop: it probes the index for q restricted
// to ids in [lo, hi) (clamped to the corpus), leaves the verified ids in
// s.results in probe order — with their distances in s.dists when
// wantDist is set — and adds the work done to st. Postings and short
// are ascending-id by construction, so the restriction costs two binary
// searches per probed list, skipped when the window is the corpus.
func (db *DB) filter(s *strScratch, q string, opt Options, lo, hi int, wantDist bool, st *Stats) {
	lo, hi = max(lo, 0), min(hi, len(db.strs))
	if lo >= hi {
		return
	}
	windowed := lo > 0 || hi < len(db.strs)
	wlo, whi := int32(lo), int32(hi)
	tau, kappa := db.tau, db.kappa
	m := tau + 1
	l := min(max(opt.ChainLength, 1), m)

	qStrMask := charMask(q)
	verify := func(id int32) {
		if opt.SkipVerify {
			return
		}
		if contentLowerBound(db.strMasks[id], qStrMask) > tau {
			return
		}
		if d := EditDistanceWithin(db.strs[id], q, tau); d >= 0 {
			s.results = append(s.results, int(id))
			if wantDist {
				s.dists = append(s.dists, d)
			}
		}
	}

	// Short indexed strings bypass filtering (with the length filter).
	short := db.short
	if windowed {
		a, _ := slices.BinarySearch(short, wlo)
		b, _ := slices.BinarySearch(short, whi)
		short = short[a:b]
	}
	for _, id := range short {
		if diff(len(db.strs[id]), len(q)) <= tau {
			st.Fallback++
			verify(id)
		}
	}

	s.qGrams = db.dict.ExtractAppend(s.qGrams, q)
	qPrefix := Prefix(s.qGrams, kappa, tau)
	s.qPiv, s.qByPos = SelectPivotalAppend(s.qByPos, s.qPiv, qPrefix, kappa, tau)
	qPivotal := s.qPiv
	if len(qPrefix) < kappa*tau+1 || len(qPivotal) < tau+1 {
		// Degenerate query: too short to carry the signature scheme.
		// Scan the id range with the length filter, stepping over the
		// short ids already handled.
		for id := lo; id < hi; id++ {
			if len(short) > 0 && int(short[0]) == id {
				short = short[1:]
				continue
			}
			if diff(len(db.strs[id]), len(q)) <= tau {
				st.Fallback++
				verify(int32(id))
			}
		}
		st.Results += len(s.results)
		return
	}
	qLast := qPrefix[len(qPrefix)-1].ID
	for _, g := range qPivotal {
		s.qMasks = append(s.qMasks, charMask(q[g.Pos:g.Pos+int32(kappa)]))
	}
	qPivMasks := s.qMasks
	// The query's position masks are shared by every candidate whose
	// boxes probe against q (case A), so one pass here replaces a mask
	// rebuild per candidate per box.
	if opt.Ring {
		s.qPosMasks = appendPosMasks(s.qPosMasks[:0], q, db.winLen)
	}
	qPosMasks := s.qPosMasks

	// processed[id]: 0 unseen, 1 decided.
	processed := s.processed
	// The chain check is the hand-inlined integer form of
	// core.NewUniform(τ, m, l, LE).HasPrefixViableChain — prefix sums
	// compare as sum·m ≤ l'·τ, which is exact for integer boxes — with
	// the Corollary 2 skip kept; core.Filter's interface dispatch and
	// float quotas dominated the filter cost at κ=2.
	if cap(s.boxVal) < m {
		s.boxVal = make([]int, m)
	}
	boxVal := s.boxVal[:m]
	// decide runs the second filter on a string that passed the prefix,
	// position and length filters. The probe loop that found it fixes
	// the §6.3 orientation: rec is x's box record from the arena,
	// probed against q (case A), or nil for q's pivotal grams against x
	// (case B).
	decide := func(id int32, rec []uint64) {
		if processed[id] == 1 {
			return
		}
		processed[id] = 1
		s.marked = append(s.marked, id)
		st.Cand1++
		if opt.Ring {
			// Boxes are evaluated eagerly: a rejected candidate's chain
			// walk visits every box anyway (each start is either probed
			// as a chain head or skipped because a chain already failed
			// at it), so laziness saved nothing and its memo cost a
			// closure call per box. Case-A boxes probe the query's
			// precomputed position masks; case-B boxes fold the
			// candidate's bytes directly (see minGramBoxLBText).
			if rec != nil {
				for j, mask := range rec[:m] {
					boxVal[j] = minGramBoxLBMasks(mask, kappa, boxPos(rec, m, j), qPosMasks, len(q), db.winLen, tau)
				}
			} else {
				x := db.strs[id]
				for j, g := range qPivotal {
					boxVal[j] = minGramBoxLBText(qPivMasks[j], kappa, int(g.Pos), x, db.winLen, tau)
				}
			}
			st.BoxChecks += m
			viable := false
			for i := 0; i < m && !viable; {
				viable = true
				sum, fail := 0, 0
				for lp := 1; lp <= l; lp++ {
					j := i + lp - 1
					if j >= m {
						j -= m
					}
					sum += boxVal[j]
					if sum*m > lp*tau {
						viable, fail = false, lp
						break
					}
				}
				if !viable {
					i += fail
				}
			}
			if !viable {
				return
			}
		} else {
			// Alignment filter: Σ exact per-gram minimum edit distances
			// must stay within τ (the basic form at l = m).
			x := db.strs[id]
			sum := 0
			for j := 0; j < m; j++ {
				st.BoxChecks++
				if rec != nil {
					p := boxPos(rec, m, j)
					sum += minGramEditExact(x[p:p+kappa], p, q, tau)
				} else {
					p := qPivotal[j].Pos
					sum += minGramEditExact(q[p:p+int32(kappa)], int(p), x, tau)
				}
				if sum > tau {
					return
				}
			}
		}
		st.Cand2++
		verify(id)
	}

	// Case A: x's prefix ends first; probe the pivotal index with every
	// query prefix gram.
	for _, qg := range qPrefix {
		postings := list(db.pivOff, db.piv, qg.ID)
		if windowed {
			postings = window(postings, wlo, whi)
		}
		st.Probes += len(postings)
		for _, pe := range postings {
			if pe.last > qLast || diff(int(pe.pos), int(qg.Pos)) > tau || diff(int(pe.len), len(q)) > tau {
				continue
			}
			decide(pe.id, db.boxes[int(pe.slot)*db.recLen:int(pe.slot+1)*db.recLen])
		}
	}
	// Case B: q's prefix ends first; probe the prefix index with the
	// query's pivotal grams.
	for _, qg := range qPivotal {
		postings := list(db.preOff, db.pre, qg.ID)
		if windowed {
			postings = window(postings, wlo, whi)
		}
		st.Probes += len(postings)
		for _, pe := range postings {
			if pe.last <= qLast || diff(int(pe.pos), int(qg.Pos)) > tau || diff(int(pe.len), len(q)) > tau {
				continue
			}
			decide(pe.id, nil)
		}
	}
	st.Results += len(s.results)
}

// window returns the subrange of an ascending-id posting list whose ids
// fall in [lo, hi).
func window[P interface{ key() int32 }](post []P, lo, hi int32) []P {
	cmp := func(p P, id int32) int { return int(p.key()) - int(id) }
	a, _ := slices.BinarySearchFunc(post, lo, cmp)
	b, _ := slices.BinarySearchFunc(post[a:], hi, cmp)
	return post[a : a+b]
}

// SearchLinear scans the whole database with the banded verifier; it is
// the ground truth for tests.
func (db *DB) SearchLinear(q string) []int {
	var out []int
	for id, s := range db.strs {
		if EditDistanceWithin(s, q, db.tau) >= 0 {
			out = append(out, id)
		}
	}
	return out
}

func diff(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}
