package setsim

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/pairs"
	"repro/internal/tokenset"
)

// PKWiseDB indexes token sets for pkwise search (the pigeonhole
// baseline) and its pigeonring upgrade. Build it once per (measure, τ)
// configuration with NewPKWiseDB.
type PKWiseDB struct {
	cfg  Config
	sets []tokenset.Set
	meta []setMeta
	// The postings are one CSR arena: ids[offs[s]:offs[s+1]] holds,
	// ascending, the ids whose prefix contains the token of slot s. The
	// slot of tok is tok−minTok when toks is nil (direct addressing),
	// else its rank in toks, the sorted distinct prefix tokens.
	offs   []int32
	ids    []int32
	minTok int32
	toks   []int32
	// scratch pools per-search working memory (pkScratch) so the hot
	// path stays allocation-free across calls.
	scratch sync.Pool
}

// setMeta is a set's class-coverage prefix length and the last token of
// that prefix — all the §6.2 orientation rule needs of the set besides
// its size, in one 8-byte read instead of slice header → tokens.
type setMeta struct {
	px, last int32
}

// sizeClamp is the largest set size a count row can carry; a row that
// holds it defers to the set itself for the exact size.
const sizeClamp = math.MaxUint16

// pkScratch is the per-search working memory a PKWiseDB hands out from
// its pool. counts is the n×m table of count rows: slot 0 of row i —
// the suffix box has no count — holds |set i| clamped to sizeClamp, so
// the size window is decided on the cache line an in-window posting
// increments anyway; slots 1..m−1 are the class overlaps. The overlaps
// are cleared row-by-row via the touched list on release, so clearing
// costs O(touched·(m−1)), not O(n·m).
type pkScratch struct {
	counts  []uint16
	touched []int32
	cnt     []int
	t       []int
	// tpre holds the doubled-ring prefix sums of t for the chain check.
	tpre    []int
	results []int
	// sims holds the exact similarity of each entry of results,
	// populated only on the SearchSim path.
	sims []float64
}

func (db *PKWiseDB) getScratch() *pkScratch {
	return db.scratch.Get().(*pkScratch)
}

func (db *PKWiseDB) putScratch(s *pkScratch) {
	s.reset(db.cfg.M)
	db.scratch.Put(s)
}

// reset readies s for the next search by zeroing the class overlaps of
// every touched row. Slot 0 stays: a cleared size would silently drop
// every later posting of that id from the size window.
func (s *pkScratch) reset(m int) {
	for _, id := range s.touched {
		base := int(id) * m
		clear(s.counts[base+1 : base+m])
	}
	s.touched = s.touched[:0]
	s.results = s.results[:0]
	s.sims = s.sims[:0]
}

// NewPKWiseDB builds the pkwise index: each set's prefix length is the
// smallest p whose class coverage Σ_k max(0, cnt_k − k + 1) reaches
// |x| − t + 1 (t being the loosest overlap threshold any compatible
// partner can impose), and every prefix token is posted. The index
// retains sets, not a copy: the caller must not modify them afterwards.
func NewPKWiseDB(sets []tokenset.Set, cfg Config) (*PKWiseDB, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := tokenset.Validate(sets); err != nil {
		return nil, err
	}
	return build(sets, cfg)
}

// build derives the whole index from validated sets — the one
// construction path of NewPKWiseDB and OpenSnapshotAt. The arena is
// filled by a counting sort: one pass over the prefixes counts each
// slot, a second places the ids.
func build(sets []tokenset.Set, cfg Config) (*PKWiseDB, error) {
	db := &PKWiseDB{cfg: cfg, sets: sets, meta: make([]setMeta, len(sets))}
	cnt := make([]int, cfg.M)
	total := 0
	minTok, maxTok := int32(math.MaxInt32), int32(math.MinInt32)
	for id, x := range sets {
		p, _ := cfg.prefixInfo(x, cfg.minThreshold(len(x)), cnt)
		if p == 0 {
			continue
		}
		// A pair's class-k overlap never exceeds either set's class-k
		// prefix count, so bounding these keeps the 16-bit counts exact.
		for k, c := range cnt[1:] {
			if c > math.MaxUint16 {
				return nil, &classCountError{set: id, class: k + 1, count: c}
			}
		}
		db.meta[id] = setMeta{px: int32(p), last: x[p-1]}
		total += p
		minTok, maxTok = min(minTok, x[0]), max(maxTok, x[p-1])
	}
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("setsim: %d prefix postings exceed the index's 32-bit offsets", total)
	}
	// Direct exactly when the offset table is no larger than the arena;
	// sparse universes (and an empty arena) get the sorted token list.
	db.minTok = minTok
	slots := max(0, int(maxTok)-int(minTok)+1)
	if slots+1 > total {
		toks := make([]int32, 0, total)
		for id, x := range sets {
			toks = append(toks, x[:db.meta[id].px]...)
		}
		slices.Sort(toks)
		db.toks = slices.Clone(slices.Compact(toks))
		slots = len(db.toks)
	}
	offs := make([]int32, slots+1)
	db.offs = offs
	for id, x := range sets {
		for _, tok := range x[:db.meta[id].px] {
			offs[db.slot(tok)]++
		}
	}
	for s := 1; s <= slots; s++ {
		offs[s] += offs[s-1]
	}
	// offs[s] is now the end of slot s; placing ids from the last set
	// down walks it back to the start and leaves every list ascending.
	db.ids = make([]int32, total)
	for id := len(sets) - 1; id >= 0; id-- {
		for _, tok := range sets[id][:db.meta[id].px] {
			s := db.slot(tok)
			offs[s]--
			db.ids[offs[s]] = int32(id)
		}
	}

	m := cfg.M
	db.scratch.New = func() any {
		s := &pkScratch{
			counts: make([]uint16, len(sets)*m),
			cnt:    make([]int, m),
			t:      make([]int, m),
			tpre:   make([]int, 2*m+1),
		}
		for id, x := range sets {
			s.counts[id*m] = uint16(min(len(x), sizeClamp))
		}
		return s
	}
	return db, nil
}

// classCountError rejects a set whose prefix holds more tokens of one
// class than the 16-bit class-overlap counts of a search can carry.
type classCountError struct {
	set, class, count int
}

func (e *classCountError) Error() string {
	return fmt.Sprintf("setsim: set %d has %d prefix tokens of class %d; class overlaps are counted in 16 bits (at most %d)",
		e.set, e.count, e.class, math.MaxUint16)
}

// slot returns the arena slot of tok, or −1 when no prefix contains it.
func (db *PKWiseDB) slot(tok int32) int {
	if db.toks != nil {
		if s, ok := slices.BinarySearch(db.toks, tok); ok {
			return s
		}
		return -1
	}
	if s := int(tok) - int(db.minTok); s >= 0 && s < len(db.offs)-1 {
		return s
	}
	return -1
}

// posting returns the ids whose prefix contains tok, ascending.
func (db *PKWiseDB) posting(tok int32) []int32 {
	s := db.slot(tok)
	if s < 0 {
		return nil
	}
	return db.ids[db.offs[s]:db.offs[s+1]]
}

// Len returns the number of indexed sets.
func (db *PKWiseDB) Len() int { return len(db.sets) }

// Config returns the (measure, τ, M) configuration the index was built
// for.
func (db *PKWiseDB) Config() Config { return db.cfg }

// Set returns the indexed set with the given id.
func (db *PKWiseDB) Set(id int) tokenset.Set { return db.sets[id] }

// PrefixLen returns the indexed class-coverage prefix length of set id.
func (db *PKWiseDB) PrefixLen(id int) int { return int(db.meta[id].px) }

// prefixInfo computes the class-coverage prefix of s for overlap
// threshold t, filling cnt (len M, caller-provided scratch) with the
// per-class token counts within the prefix (indexed 1..M-1). It
// returns the prefix length and the coverage shortfall: how far
// Σ_k max(0, cnt_k−k+1) fell short of the target |s| − t + 1 when the
// whole set had to be taken as the prefix. A positive shortfall only
// occurs for tiny or class-skewed sets.
func (c Config) prefixInfo(s tokenset.Set, t int, cnt []int) (p int, shortfall int) {
	clear(cnt)
	target := len(s) - t + 1
	if target <= 0 {
		// The set can never reach the threshold (t > |s|) or exactly
		// matches only when fully consumed; index nothing.
		return 0, 0
	}
	cov := 0
	for i, tok := range s {
		k := c.classOf(tok)
		cnt[k]++
		if cnt[k] >= k {
			cov++
		}
		if cov >= target {
			return i + 1, 0
		}
	}
	return len(s), target - cov
}

// queryPlan carries the per-query derived quantities of the §6.2
// filtering instance.
type queryPlan struct {
	sq, pq int   // query size and prefix length
	cnt    []int // class counts in the query prefix
	t      []int // box thresholds t_0..t_{m-1}
	tLast  int32 // last token of the query prefix (orientation)
}

// plan computes the query prefix and the paper's threshold allocation:
// t_0 = |q|−p_q+1, t_k = k if cnt_k ≥ k else cnt_k+1, which sums to
// minT + m − 1. A coverage shortfall is subtracted from t_0 so the sum
// never exceeds the Theorem 7 budget. The plan's cnt and t alias the
// scratch s and stay valid only for the current search.
func (db *PKWiseDB) plan(q tokenset.Set, s *pkScratch) (queryPlan, bool) {
	cfg := db.cfg
	cnt, t := s.cnt, s.t
	p, shortfall := cfg.prefixInfo(q, cfg.minThreshold(len(q)), cnt)
	if p == 0 {
		return queryPlan{}, false
	}
	t[0] = len(q) - p + 1 - shortfall
	for k := 1; k < cfg.M; k++ {
		t[k] = min(k, cnt[k]+1)
	}
	return queryPlan{sq: len(q), pq: p, cnt: cnt, t: t, tLast: q[p-1]}, true
}

// suffixBound is the cheap upper bound on the suffix box of a set of
// size sx under the §6.2 orientation rule: the side whose prefix ends
// first contributes its suffix against the whole other set. Every
// common token on that side's prefix then lies in the other prefix too,
// so |x ∩ q| ≤ Σ_k counts_k + suffixBound.
func (p *queryPlan) suffixBound(me setMeta, sx int) int {
	if me.last <= p.tLast {
		return min(sx-int(me.px), p.sq)
	}
	return min(p.sq-p.pq, sx)
}

// Search returns the ids of all sets meeting the similarity threshold,
// in ascending order. ChainLength l = 1 reproduces the pkwise filter;
// l ≥ 2 applies the pigeonring strong form (Theorem 7, ≥ dual) on the
// class-overlap boxes, with the suffix box replaced by its cheap upper
// bound as described in the package comment.
func (db *PKWiseDB) Search(q tokenset.Set, chainLength int) ([]int, Stats, error) {
	var st Stats
	s := db.getScratch()
	defer db.putScratch(s)
	err := db.filter(s, q, chainLength, true, false, 0, len(db.sets), &st)
	return pairs.SortedIDs(s.results), st, err
}

// SearchSim is Search additionally reporting each result's exact
// similarity (the Jaccard value, or the overlap count under the
// Overlap measure), aligned index-for-index with the returned ids.
// The pairs come back in unspecified order — the engine's top-k
// planner reorders by similarity anyway, so the id sort is skipped.
func (db *PKWiseDB) SearchSim(q tokenset.Set, chainLength int) ([]int, []float64, Stats, error) {
	var st Stats
	s := db.getScratch()
	defer db.putScratch(s)
	if err := db.filter(s, q, chainLength, true, true, 0, len(db.sets), &st); err != nil {
		return nil, nil, st, err
	}
	return slices.Clone(s.results), slices.Clone(s.sims), st, nil
}

// CountCandidates runs candidate generation only — identical filtering
// to Search but without verification (the "Cand." series of the
// paper's time plots).
func (db *PKWiseDB) CountCandidates(q tokenset.Set, chainLength int) (Stats, error) {
	var st Stats
	_, err := db.SearchRangeAppend(q, chainLength, true, 0, len(db.sets), nil, &st)
	return st, err
}

// SearchRangeAppend runs the similarity search restricted to ids in
// [rlo, rhi), appending the qualifying ids in ascending order to dst
// and accumulating statistics into st. It is the join engine's per-tile
// probe: posting lists are ascending-id by construction, so the
// restriction costs two binary searches per probed list, and none when
// the window is the whole corpus. skipVerify stops after candidate
// generation, mirroring CountCandidates.
func (db *PKWiseDB) SearchRangeAppend(q tokenset.Set, chainLength int, skipVerify bool, rlo, rhi int, dst []int64, st *Stats) ([]int64, error) {
	s := db.getScratch()
	defer db.putScratch(s)
	err := db.filter(s, q, chainLength, !skipVerify, false, rlo, rhi, st)
	slices.Sort(s.results)
	for _, id := range s.results {
		dst = append(dst, int64(id))
	}
	return dst, err
}

// filter is the one probe → decide → verify body behind every search
// entry point. It leaves the results (and, when wantSim, their exact
// similarities) unordered in s and adds its work to st. Only ids in
// [wlo, whi) are considered. An invalid query is the only error, and
// it is reported before any result exists.
//
// Per touched object it applies the pkwise condition (some class box at
// threshold, or a potentially viable suffix box) and, for l ≥ 2, the
// pigeonring chain check over the class boxes with the optimistic
// suffix bound. Thresholds and boxes are integers, so the strong form
// compares ints over the doubled-ring prefix sums: the length-l′ prefix
// of the chain starting at box i needs sum ≥ tpre[i+l′]−tpre[i]−(l′−1),
// and a failure at l′ skips the next l′−1 starts (Corollary 2).
func (db *PKWiseDB) filter(s *pkScratch, q tokenset.Set, l int, verify, wantSim bool, wlo, whi int, st *Stats) error {
	if !q.Valid() {
		return fmt.Errorf("setsim: query set is not sorted/deduplicated")
	}
	wlo, whi = max(wlo, 0), min(whi, len(db.sets))
	if wlo >= whi {
		return nil
	}
	cfg := db.cfg
	m := cfg.M
	l = min(max(l, 1), m)
	plan, ok := db.plan(q, s)
	if !ok {
		return nil
	}
	t, tpre := plan.t, s.tpre
	for i := 0; i < 2*m; i++ {
		tpre[i+1] = tpre[i] + t[i%m]
	}
	lo, hi := cfg.sizeBounds(len(q))
	windowed := wlo > 0 || whi < len(db.sets)

	// Count class overlaps between prefixes via the inverted index.
	counts, touched := s.counts, s.touched
	for _, tok := range q[:plan.pq] {
		k := cfg.classOf(tok)
		post := db.posting(tok)
		if windowed {
			a, _ := slices.BinarySearch(post, int32(wlo))
			b, _ := slices.BinarySearch(post, int32(whi))
			post = post[a:b]
		}
		st.Probes += len(post)
		for _, id := range post {
			row := counts[int(id)*m:][:m]
			sz := int(row[0])
			if sz == sizeClamp {
				sz = len(db.sets[id])
			}
			if sz < lo || sz > hi {
				continue
			}
			if countsRowEmpty(row[1:]) {
				touched = append(touched, id)
			}
			row[k]++
		}
	}
	s.touched = touched
	st.Touched += len(touched)

	results := s.results
	for _, id := range touched {
		row := counts[int(id)*m:][:m]
		classViable, classSum := false, 0
		for k := 1; k < m; k++ {
			c := int(row[k])
			classSum += c
			if c >= t[k] {
				classViable = true
			}
		}
		sx := int(row[0])
		if sx == sizeClamp {
			sx = len(db.sets[id])
		}
		ub0 := plan.suffixBound(db.meta[id], sx)
		if !classViable && ub0 < t[0] {
			continue
		}
		if l > 1 {
			st.BoxChecks += m
			viable := false
			for i := 0; i < m && !viable; {
				sum, lp := 0, 1
				for ; lp <= l; lp++ {
					k := i + lp - 1
					if k >= m {
						k -= m
					}
					box := ub0
					if k != 0 {
						box = int(row[k])
					}
					sum += box
					if sum < tpre[i+lp]-tpre[i]-(lp-1) {
						break
					}
				}
				viable = lp > l
				i += lp
			}
			if !viable {
				continue
			}
		}
		st.Candidates++
		if !verify {
			continue
		}
		// The boxes already in hand bound the overlap from above; most
		// candidates fall short of the pair threshold on that bound alone
		// and are rejected without reading a token of the set.
		need := cfg.pairThreshold(sx, len(q))
		if classSum+ub0 < need {
			continue
		}
		x := db.sets[id]
		if wantSim {
			// The exact overlap replaces the early-exit threshold test:
			// the similarity value is needed for ranking.
			if o := tokenset.Overlap(x, q); o >= need {
				results = append(results, int(id))
				if cfg.Measure == Jaccard {
					s.sims = append(s.sims, float64(o)/float64(len(x)+len(q)-o))
				} else {
					s.sims = append(s.sims, float64(o))
				}
			}
		} else if tokenset.OverlapAtLeast(x, q, need) {
			results = append(results, int(id))
		}
	}
	s.results = results
	st.Results += len(results)
	return nil
}

func countsRowEmpty(row []uint16) bool {
	for _, v := range row {
		if v != 0 {
			return false
		}
	}
	return true
}
