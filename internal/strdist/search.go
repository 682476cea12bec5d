package strdist

import (
	"fmt"
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
type DB struct {
	kappa, tau int
	strs       []string
	dict       *GramDict

	// Per indexed string: orientation anchor, pivotal grams (position
	// order) and their char masks.
	lastPrefix []int32
	pivotal    [][]Gram
	pivMasks   [][]uint64
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

	// pivIdx maps gram id -> occurrences as a pivotal gram.
	pivIdx map[int32][]pivPosting
	// preIdx maps gram id -> occurrences in a string's prefix.
	preIdx map[int32][]prePosting
	// short holds ids of strings too short to carry τ+1 pivotal grams;
	// they bypass filtering.
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

type pivPosting struct {
	id  int32
	box int16
	pos int32
}

type prePosting struct {
	id  int32
	pos int32
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
		lastPrefix: make([]int32, len(strs)),
		pivotal:    make([][]Gram, len(strs)),
		pivMasks:   make([][]uint64, len(strs)),
		pivIdx:     make(map[int32][]pivPosting),
		preIdx:     make(map[int32][]prePosting),
		winLen:     kappa + tau,
		strMasks:   make([]uint64, len(strs)),
	}
	fullPrefix := kappa*tau + 1
	for id, s := range strs {
		db.strMasks[id] = charMask(s)
		grams := dict.Extract(s)
		prefix := Prefix(grams, kappa, tau)
		pivotal := SelectPivotal(prefix, kappa, tau)
		if len(prefix) < fullPrefix || len(pivotal) < tau+1 {
			db.short = append(db.short, int32(id))
			continue
		}
		db.lastPrefix[id] = prefix[len(prefix)-1].ID
		db.pivotal[id] = pivotal
		masks := make([]uint64, len(pivotal))
		for b, g := range pivotal {
			masks[b] = charMask(s[g.Pos : g.Pos+int32(kappa)])
			db.pivIdx[g.ID] = append(db.pivIdx[g.ID], pivPosting{int32(id), int16(b), g.Pos})
		}
		db.pivMasks[id] = masks
		for _, g := range prefix {
			db.preIdx[g.ID] = append(db.preIdx[g.ID], prePosting{int32(id), g.Pos})
		}
	}
	db.scratch.New = func() any {
		return &strScratch{processed: make([]uint8, len(db.strs))}
	}
	return db, nil
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
		// Scan the id range with the length filter.
		for id := lo; id < hi; id++ {
			if db.pivotal[id] == nil {
				continue // already handled via short
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
	decide := func(id int32) {
		if processed[id] == 1 {
			return
		}
		processed[id] = 1
		s.marked = append(s.marked, id)
		x := db.strs[id]
		if diff(len(x), len(q)) > tau {
			return
		}
		st.Cand1++
		// Pick the box side by the §6.3 orientation rule.
		var pivotal []Gram
		var masks []uint64
		var text, gramSrc string
		var caseA bool
		if db.lastPrefix[id] <= qLast {
			pivotal, masks, text, gramSrc = db.pivotal[id], db.pivMasks[id], q, x
			caseA = true
		} else {
			pivotal, masks, text, gramSrc = qPivotal, qPivMasks, x, q
		}
		if opt.Ring {
			// Boxes are evaluated eagerly: a rejected candidate's chain
			// walk visits every box anyway (each start is either probed
			// as a chain head or skipped because a chain already failed
			// at it), so laziness saved nothing and its memo cost a
			// closure call per box. Case-A boxes probe the query's
			// precomputed position masks; case-B boxes fold the
			// candidate's bytes directly (see minGramBoxLBText).
			for j := 0; j < m; j++ {
				st.BoxChecks++
				if caseA {
					boxVal[j] = minGramBoxLBMasks(masks[j], kappa, int(pivotal[j].Pos), qPosMasks, len(q), db.winLen, tau)
				} else {
					boxVal[j] = minGramBoxLBText(masks[j], kappa, int(pivotal[j].Pos), text, db.winLen, tau)
				}
			}
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
			sum := 0
			for j := 0; j < m; j++ {
				st.BoxChecks++
				g := pivotal[j]
				sum += minGramEditExact(gramSrc[g.Pos:g.Pos+int32(kappa)], int(g.Pos), text, tau)
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
		postings := db.pivIdx[qg.ID]
		if windowed {
			postings = windowPiv(postings, wlo, whi)
		}
		st.Probes += len(postings)
		for _, pe := range postings {
			if db.lastPrefix[pe.id] > qLast {
				continue
			}
			if diff(int(pe.pos), int(qg.Pos)) > tau {
				continue
			}
			decide(pe.id)
		}
	}
	// Case B: q's prefix ends first; probe the prefix index with the
	// query's pivotal grams.
	for _, qg := range qPivotal {
		postings := db.preIdx[qg.ID]
		if windowed {
			postings = windowPre(postings, wlo, whi)
		}
		st.Probes += len(postings)
		for _, pe := range postings {
			if db.lastPrefix[pe.id] <= qLast {
				continue
			}
			if diff(int(pe.pos), int(qg.Pos)) > tau {
				continue
			}
			decide(pe.id)
		}
	}
	st.Results += len(s.results)
}

// windowPiv returns the subrange of the ascending-id pivotal posting
// list whose ids fall in [lo, hi).
func windowPiv(post []pivPosting, lo, hi int32) []pivPosting {
	a, _ := slices.BinarySearchFunc(post, lo, func(p pivPosting, id int32) int { return int(p.id) - int(id) })
	b, _ := slices.BinarySearchFunc(post, hi, func(p pivPosting, id int32) int { return int(p.id) - int(id) })
	return post[a:b]
}

// windowPre returns the subrange of the ascending-id prefix posting
// list whose ids fall in [lo, hi).
func windowPre(post []prePosting, lo, hi int32) []prePosting {
	a, _ := slices.BinarySearchFunc(post, lo, func(p prePosting, id int32) int { return int(p.id) - int(id) })
	b, _ := slices.BinarySearchFunc(post, hi, func(p prePosting, id int32) int { return int(p.id) - int(id) })
	return post[a:b]
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
