// Package hamming implements thresholded Hamming distance search
// (Problem 2 of the pigeonring paper) with the GPH algorithm as the
// pigeonhole-principle baseline and its pigeonring upgrade "Ring"
// (§6.1).
//
// The filtering instance is the paper's:
//
//   - Extract: the d dimensions are partitioned into m disjoint parts.
//   - Box: b_i(x, q) = H(x_i, q_i), the Hamming distance over part i.
//   - Bound: D(τ) = τ.
//
// Because the parts are disjoint, ‖B(x, q)‖₁ = H(x, q) and the instance
// is complete and tight (Lemma 7). GPH allocates integer thresholds
// t_0..t_{m-1} with Σt = τ−m+1 via a cost model (Theorems 5/7, integer
// reduction); a candidate must have some part with H(x_i, q_i) ≤ t_i.
// Ring additionally requires the chain starting at that part to be
// prefix-viable for the configured chain length (Theorem 7).
//
// The index maps each part value to the list of vector ids holding it;
// candidate generation enumerates the radius-t_i ball around each query
// part (exactly GPH's probing scheme), so the Ring modification is
// confined to the second step, as §7 of the paper prescribes.
//
// Storage is laid out for what a probe touches: the vectors live in one
// flat word arena (NewDB copies its input), a part's table is
// direct-addressed whenever that is no larger than the hash table it
// replaces (useDirect), and the chain check skips the first box of
// every chain — a candidate found under ball value u has
// b_i = popcount(u ⊕ q_i) ≤ t_i by construction. Search, SearchDist and
// SearchRangeAppend are wrappers over one [lo, hi)-restricted loop.
package hamming

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bitvec"
)

// Allocation selects how the per-part thresholds are chosen.
type Allocation int

const (
	// AllocCostModel greedily assigns threshold increments to the parts
	// where they are estimated to add the fewest candidates — the GPH
	// cost model, estimated on a data sample.
	AllocCostModel Allocation = iota
	// AllocUniform spreads the threshold budget evenly across parts
	// (the ablation baseline for the cost model).
	AllocUniform
)

// Options configure a search.
type Options struct {
	// ChainLength is the pigeonring chain length l. 1 reproduces GPH
	// exactly; the paper finds l = 5 or 6 best for Hamming search.
	ChainLength int
	// Alloc selects the threshold allocation strategy.
	Alloc Allocation
	// NoIntegerReduction disables Theorem 7 integer reduction and uses
	// plain variable threshold allocation with Σt = τ (Theorem 6). It
	// exists for the ablation benchmark; GPH always reduces.
	NoIntegerReduction bool
	// SkipVerify stops after candidate generation: Stats are filled
	// but no verification runs and no results are returned. It exists
	// to measure the filtering cost separately, the "Cand." series of
	// the paper's time plots.
	SkipVerify bool
}

// GPHOptions returns the configuration that reproduces the GPH baseline.
func GPHOptions() Options { return Options{ChainLength: 1, Alloc: AllocCostModel} }

// RingOptions returns the pigeonring configuration with chain length l.
func RingOptions(l int) Options { return Options{ChainLength: l, Alloc: AllocCostModel} }

// Stats reports the work a search performed.
type Stats struct {
	// Candidates is the number of distinct objects that survived all
	// filters and were verified.
	Candidates int
	// Results is the number of objects with H(x, q) ≤ τ.
	Results int
	// Probes is the number of posting-list entries scanned.
	Probes int
	// Enumerated is the number of ball values probed against the index.
	Enumerated int
	// BoxChecks is the number of boxes the chain-filter step evaluated
	// (zero when ChainLength = 1). The first box of a chain is known
	// from the ball value the candidate was found under and is not
	// counted.
	BoxChecks int
	// Thresholds is the allocation the cost model chose.
	Thresholds []int
}

// DB is an immutable database of equal-dimension binary vectors indexed
// for GPH/Ring search. Build it once with NewDB; Search is safe for
// concurrent use with distinct accepted-buffers, so the DB hands out
// per-call scratch internally.
type DB struct {
	// arena holds the n vectors back to back, wpv words each — the
	// layout the snapshot's "vecs" section stores — so a candidate's
	// words are one multiply away from its id.
	arena  []uint64
	n, wpv int
	part   bitvec.Partitioning
	// box[i] locates part i inside a vector's words.
	box []boxDesc
	// index[i] maps the value of part i to the ids holding that value.
	index []partIndex
	// sample ids used by the cost model.
	sample []int32
	// sampleVals[i]/sampleCnts[i] hold the deduplicated part-i values
	// of the sample with their multiplicities, extracted at build time,
	// so the cost model histograms cost one xor+popcount per distinct
	// value instead of a part-distance scan over every sample vector.
	sampleVals [][]uint64
	sampleCnts [][]int32
	// histCache[i] memoizes the part-i sample distance histogram keyed
	// by the query's part value: repeated queries (and every probe of a
	// batch or join) skip the sample scan entirely. Entries across all
	// parts are capped at roughly histCacheCap (the check-then-store is
	// unsynchronized, so concurrent misses may overshoot by up to the
	// number of in-flight searches); past the cap, histograms are
	// recomputed into per-search scratch, so memory stays bounded under
	// arbitrary query streams.
	histCache   []sync.Map
	histEntries atomic.Int64
	// scratch pools per-search working memory (searchScratch) so the
	// hot path stays allocation-free across calls.
	scratch sync.Pool
}

// boxDesc locates one part inside a vector's packed words, worked out
// once per DB so the chain check does no bound arithmetic per box.
type boxDesc struct {
	mask  uint64
	word  int
	shift uint
	// straddles marks a part whose high bits spill into word+1; shift
	// is then in [1, 63].
	straddles bool
}

func newBoxes(part bitvec.Partitioning) []boxDesc {
	box := make([]boxDesc, part.M())
	for i := range box {
		lo, w := part.Bounds[i], part.Width(i)
		box[i] = boxDesc{
			mask:      ^uint64(0) >> uint(64-w),
			word:      lo / 64,
			shift:     uint(lo % 64),
			straddles: lo%64+w > 64,
		}
	}
	return box
}

// extract returns the part's value in the vector held by words.
func (b *boxDesc) extract(words []uint64) uint64 {
	x := words[b.word] >> b.shift
	if b.straddles {
		x |= words[b.word+1] << (64 - b.shift)
	}
	return x & b.mask
}

// histCacheCap bounds the total number of cached per-part histograms.
// At the cap the cache holds histCacheCap·(maxWidth+1) int32s — a few
// megabytes for realistic partitionings.
const histCacheCap = 1 << 14

// probeChunk is how many ball values the filter enumerates, resolves
// and scans at a time: enough independent lookups in flight to overlap
// their misses, and a bound on scratch however large the ball.
const probeChunk = 256

// searchScratch is the per-search working memory a DB hands out from
// its pool: the accepted-id bitmap (cleared via the marked list on
// release, so clearing costs O(candidates), not O(n)), the threshold
// allocator's arrays, the probe loop's chunk buffers, and the reusable
// result buffers (the Search wrappers copy them out before returning).
type searchScratch struct {
	accepted []bool
	marked   []int32
	qParts   []uint64
	t        []int
	// tpre holds the doubled-ring prefix sums of the thresholds for the
	// integer chain check; len 2m+1. quota[lp] is the bound on the box
	// sum of the length-lp chain prefix from the part being probed.
	tpre  []int
	quota []int
	// hists holds the per-part histogram views the allocator reads;
	// histBuf is the fallback storage used when the cache is full.
	hists   [][]int32
	histBuf [][]int32
	ball    ballEnum
	vals    [probeChunk]uint64
	spans   [probeChunk]uint64
	// results holds the verified ids in probe order and dists the
	// Hamming distance of each.
	results []int32
	dists   []int
}

func (db *DB) getScratch() *searchScratch {
	return db.scratch.Get().(*searchScratch)
}

func (db *DB) putScratch(s *searchScratch) {
	for _, id := range s.marked {
		s.accepted[id] = false
	}
	s.marked = s.marked[:0]
	s.results = s.results[:0]
	s.dists = s.dists[:0]
	db.scratch.Put(s)
}

// NewDB indexes vecs (all of dimension d) under an m-part equal-width
// partitioning. The vectors are copied into the DB's arena; the slice
// and its vectors are not retained.
func NewDB(vecs []bitvec.Vector, m int) (*DB, error) {
	if len(vecs) == 0 {
		return nil, fmt.Errorf("hamming: empty database")
	}
	d := vecs[0].Dim()
	for i, v := range vecs {
		if v.Dim() != d {
			return nil, fmt.Errorf("hamming: vector %d has dimension %d, want %d", i, v.Dim(), d)
		}
	}
	if m < 1 || m > d {
		return nil, fmt.Errorf("hamming: invalid part count m=%d for d=%d", m, d)
	}
	arena := make([]uint64, 0, len(vecs)*((d+63)/64))
	for _, v := range vecs {
		arena = append(arena, v.Words()...)
	}
	return build(arena, d, m), nil
}

// build indexes a non-empty arena of d-dimensional vectors (zero bits
// beyond d) under an m-part equal-width partitioning, taking ownership
// of the arena. It is the one constructor behind NewDB and
// OpenSnapshotAt, so an opened snapshot is a fresh build by
// construction.
func build(arena []uint64, d, m int) *DB {
	part := bitvec.NewEqualPartitioning(d, m)
	wpv := (d + 63) / 64
	n := len(arena) / wpv
	db := &DB{arena: arena, n: n, wpv: wpv, part: part, box: newBoxes(part)}

	db.index = make([]partIndex, m)
	vals := make([]uint64, n)
	for i := range db.index {
		for id := range vals {
			vals[id] = db.box[i].extract(db.words(id))
		}
		db.index[i] = buildPartIndex(part.Width(i), vals)
	}

	const sampleSize = 256
	step := n/sampleSize + 1
	for id := 0; id < n; id += step {
		db.sample = append(db.sample, int32(id))
	}
	// Deduplicate the sample's part values once: the cost model only
	// needs distances to these values, never the vectors themselves.
	db.sampleVals = make([][]uint64, m)
	db.sampleCnts = make([][]int32, m)
	for i := 0; i < m; i++ {
		counts := make(map[uint64]int32, len(db.sample))
		for _, id := range db.sample {
			counts[db.box[i].extract(db.words(int(id)))]++
		}
		vals := make([]uint64, 0, len(counts))
		cnts := make([]int32, 0, len(counts))
		for _, id := range db.sample {
			v := db.box[i].extract(db.words(int(id)))
			if c, ok := counts[v]; ok {
				vals = append(vals, v)
				cnts = append(cnts, c)
				delete(counts, v)
			}
		}
		db.sampleVals[i] = vals
		db.sampleCnts[i] = cnts
	}

	db.histCache = make([]sync.Map, m)
	db.scratch.New = func() any {
		s := &searchScratch{
			accepted: make([]bool, db.n),
			qParts:   make([]uint64, m),
			t:        make([]int, m),
			tpre:     make([]int, 2*m+1),
			quota:    make([]int, m+1),
			hists:    make([][]int32, m),
			histBuf:  make([][]int32, m),
		}
		slab := make([]int32, db.part.D+m)
		for i := range s.histBuf {
			w := db.part.Width(i) + 1
			s.histBuf[i], slab = slab[:w:w], slab[w:]
		}
		return s
	}
	return db
}

// Len returns the number of indexed vectors.
func (db *DB) Len() int { return db.n }

// Dim returns the vector dimension.
func (db *DB) Dim() int { return db.part.D }

// M returns the number of parts.
func (db *DB) M() int { return db.part.M() }

// words returns vector id's packed words inside the arena.
func (db *DB) words(id int) []uint64 {
	return db.arena[id*db.wpv : (id+1)*db.wpv : (id+1)*db.wpv]
}

// Vector returns the indexed vector with the given id as a read-only
// view of the DB's storage.
func (db *DB) Vector(id int) bitvec.Vector { return bitvec.FromWords(db.part.D, db.words(id)) }

// partHist returns the part-i sample distance histogram for a query
// whose part-i value is qv: hist[k] = number of sample vectors whose
// part i is at distance k. The result is a pure function of (index,
// qv), served from the histogram cache when possible; on a miss it is
// computed from the deduplicated sample values and cached until
// histCacheCap entries exist, after which buf (scratch) is filled
// instead.
func (db *DB) partHist(i int, qv uint64, buf []int32) []int32 {
	if h, ok := db.histCache[i].Load(qv); ok {
		return h.([]int32)
	}
	h := buf
	cache := db.histEntries.Load() < histCacheCap
	if cache {
		h = make([]int32, db.part.Width(i)+1)
	} else {
		clear(h)
	}
	for j, v := range db.sampleVals[i] {
		h[bits.OnesCount64(v^qv)] += db.sampleCnts[i][j]
	}
	if cache {
		if actual, loaded := db.histCache[i].LoadOrStore(qv, h); loaded {
			return actual.([]int32)
		}
		db.histEntries.Add(1)
	}
	return h
}

// allocate chooses integer thresholds t_0..t_{m-1} summing to total,
// written into s.t, for a query with the given part values. Negative
// thresholds disable a part (its box can never be viable), which is
// how budgets below zero per part are expressed.
func (db *DB) allocate(qParts []uint64, total int, mode Allocation, s *searchScratch) []int {
	m := db.part.M()
	t := s.t
	if mode == AllocUniform {
		base := total / m
		rem := total - base*m
		for i := range t {
			t[i] = base
			if rem > 0 {
				t[i]++
				rem--
			} else if rem < 0 {
				t[i]--
				rem++
			}
		}
		return t
	}
	// Cost model: start every part at −1 (disabled) and hand out
	// total+m increments, each to the part whose next increment is
	// estimated to be cheapest. The estimate is the number of sample
	// vectors at part distance exactly t+1 (scaled to the database)
	// plus the marginal ball-enumeration cost.
	for i := range t {
		t[i] = -1
	}
	increments := total + m
	if increments <= 0 {
		return t
	}
	// hists[i][k] = number of sample vectors whose part i is at
	// distance k from the query part, from the histogram cache.
	hists := s.hists
	for i := 0; i < m; i++ {
		hists[i] = db.partHist(i, qParts[i], s.histBuf[i])
	}
	scale := float64(db.n) / float64(len(db.sample))
	const enumWeight = 0.5 // relative cost of probing one ball value
	marginal := func(i int) float64 {
		next := t[i] + 1
		w := db.part.Width(i)
		if next > w {
			return float64(1 << 62) // cannot widen further
		}
		cands := float64(hists[i][next]) * scale
		balls := binom(w, next) * enumWeight
		return cands + balls
	}
	for step := 0; step < increments; step++ {
		best, bestCost := -1, 0.0
		for i := 0; i < m; i++ {
			c := marginal(i)
			if best == -1 || c < bestCost {
				best, bestCost = i, c
			}
		}
		t[best]++
	}
	return t
}

// binom returns C(n, k), the number of values a radius-k ball shell
// adds, as the float64 the cost model consumes: in int the running
// product overflows from C(64, 24) on.
func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c
}

// ballEnum enumerates the w-bit values within Hamming distance t of a
// center in chunks: by increasing distance k, the k-bit flip masks in
// increasing numeric order (Gosper's hack), so the current mask is the
// whole state. These are bitvec.EnumerateBall's values in another order
// within each distance; nothing observable depends on that order, since
// a vector sits under exactly one value of a part.
type ballEnum struct {
	center, mask uint64
	// last is the final mask of distance k: its top k bits.
	last    uint64
	w, t, k int
}

func (e *ballEnum) reset(center uint64, w, t int) {
	*e = ballEnum{center: center, w: w, t: min(t, w)}
}

// fill writes the next values of the ball into buf and returns how
// many; 0 means the ball is exhausted.
func (e *ballEnum) fill(buf []uint64) int {
	n := 0
	for ; n < len(buf) && e.k <= e.t; n++ {
		buf[n] = e.center ^ e.mask
		if e.mask != e.last {
			// Same popcount, next larger: carry the lowest run's top bit
			// up one place and drop the rest of the run to the bottom.
			c := e.mask & -e.mask
			r := e.mask + c
			e.mask = r | (r^e.mask)>>(2+bits.TrailingZeros64(c))
		} else if e.k++; e.k <= e.t {
			e.mask = 1<<e.k - 1
			e.last = e.mask << (e.w - e.k)
		}
	}
	return n
}

// distanceWithin returns the Hamming distance between two vectors'
// words if it is at most tau, or -1 once it is known to exceed tau.
func distanceWithin(x, y []uint64, tau int) int {
	d := 0
	for j, w := range y {
		d += bits.OnesCount64(x[j] ^ w)
		if d > tau {
			return -1
		}
	}
	return d
}

// Search returns the ids of all vectors within Hamming distance tau of
// q, in ascending id order, along with search statistics.
func (db *DB) Search(q bitvec.Vector, tau int, opt Options) ([]int, Stats, error) {
	ids, _, st, err := db.searchAll(q, tau, opt, false)
	return ids, st, err
}

// SearchDist is Search additionally reporting each result's exact
// Hamming distance, aligned index-for-index with the returned ids.
// The pairs come back in unspecified order — the engine's top-k
// planner reorders by distance anyway, so the id sort is skipped.
// With SkipVerify set no results (and so no distances) are produced.
func (db *DB) SearchDist(q bitvec.Vector, tau int, opt Options) ([]int, []int, Stats, error) {
	return db.searchAll(q, tau, opt, true)
}

func (db *DB) searchAll(q bitvec.Vector, tau int, opt Options, wantDist bool) ([]int, []int, Stats, error) {
	var st Stats
	s := db.getScratch()
	defer db.putScratch(s)
	if err := db.filter(s, q, tau, opt, 0, db.n, &st); err != nil {
		return nil, nil, st, err
	}
	// s.t aliases pooled scratch; Stats must not retain it past the call.
	st.Thresholds = slices.Clone(s.t)
	if len(s.results) == 0 {
		return nil, nil, st, nil
	}
	var dists []int
	if wantDist {
		dists = slices.Clone(s.dists)
	} else {
		slices.Sort(s.results)
	}
	ids := make([]int, len(s.results))
	for i, id := range s.results {
		ids[i] = int(id)
	}
	return ids, dists, st, nil
}

// SearchRangeAppend runs the tau search restricted to ids in [lo, hi),
// appending the verified ids in ascending order to dst and accumulating
// statistics into st. It is the join engine's per-tile probe and, over
// [0, Len()), the engine's plain search: the per-call threshold clone
// of Search is skipped, so rows sharing dst and st run with zero
// steady-state allocations.
func (db *DB) SearchRangeAppend(q bitvec.Vector, tau int, opt Options, lo, hi int, dst []int64, st *Stats) ([]int64, error) {
	s := db.getScratch()
	defer db.putScratch(s)
	if err := db.filter(s, q, tau, opt, lo, hi, st); err != nil {
		return dst, err
	}
	slices.Sort(s.results)
	dst = slices.Grow(dst, len(s.results))
	for _, id := range s.results {
		dst = append(dst, int64(id))
	}
	return dst, nil
}

// filter is the one search loop: it probes the index for q at
// threshold tau, restricted to ids in [lo, hi) (clamped to the corpus),
// leaves the verified ids and their distances in s.results/s.dists in
// probe order, and adds the work done to st. Posting lists are
// ascending-id by construction, so the restriction costs two binary
// searches per non-empty list, skipped when the window is the corpus.
func (db *DB) filter(s *searchScratch, q bitvec.Vector, tau int, opt Options, lo, hi int, st *Stats) error {
	if q.Dim() != db.Dim() {
		return fmt.Errorf("hamming: query dimension %d, want %d", q.Dim(), db.Dim())
	}
	if tau < 0 {
		return fmt.Errorf("hamming: negative threshold %d", tau)
	}
	lo, hi = max(lo, 0), min(hi, db.n)
	if lo >= hi {
		return nil
	}
	windowed := lo > 0 || hi < db.n
	rlo, rhi := int32(lo), int32(hi)
	m := db.part.M()
	l := min(max(opt.ChainLength, 1), m)

	total, slack := tau-m+1, 1
	if opt.NoIntegerReduction {
		total, slack = tau, 0
	}
	qw, box := q.Words(), db.box
	qParts := s.qParts
	for i := range qParts {
		qParts[i] = box[i].extract(qw)
	}
	t := db.allocate(qParts, total, opt.Alloc, s)

	// Prefix sums of the thresholds over the doubled ring: the quota of
	// the length-lp prefix of the chain starting at part i is
	// tpre[i+lp]−tpre[i], plus lp−1 slack under Theorem 7 integer
	// reduction. Box values and thresholds are both integers, so the
	// chain check compares ints directly.
	tpre, quota := s.tpre, s.quota
	for i := 0; i < 2*m; i++ {
		tpre[i+1] = tpre[i] + t[i%m]
	}

	accepted, arena, wpv := s.accepted, db.arena, db.wpv
	var enumerated, probes, boxChecks, candidates int
	for i := 0; i < m; i++ {
		if t[i] < 0 {
			continue
		}
		for lp := 2; lp <= l; lp++ {
			quota[lp] = tpre[i+lp] - tpre[i] + (lp-1)*slack
		}
		pidx := &db.index[i]
		s.ball.reset(qParts[i], db.part.Width(i), t[i])
		for {
			// Enumerate a chunk of ball values, resolve all their posting
			// spans, and only then scan the postings.
			c := s.ball.fill(s.vals[:])
			if c == 0 {
				break
			}
			enumerated += c
			vals, spans := s.vals[:c], s.spans[:c]
			pidx.spans(vals, spans)
			for j, sp := range spans {
				postings := pidx.ids[sp>>32 : sp&0xffffffff]
				if len(postings) == 0 {
					continue
				}
				if windowed {
					a, _ := slices.BinarySearch(postings, rlo)
					b, _ := slices.BinarySearch(postings, rhi)
					postings = postings[a:b]
				}
				probes += len(postings)
				// Every posting under ball value u has part value u, so the
				// chain's first box is popcount(u ⊕ q_i) ≤ t_i — known and
				// within quota by construction; the check starts at box two.
				first := bits.OnesCount64(vals[j] ^ qParts[i])
			scan:
				for _, id := range postings {
					if accepted[id] {
						continue
					}
					cand := arena[int(id)*wpv : int(id)*wpv+wpv]
					sum := first
					for lp := 2; lp <= l; lp++ {
						k := i + lp - 1
						if k >= m {
							k -= m
						}
						boxChecks++
						sum += bits.OnesCount64(box[k].extract(cand) ^ qParts[k])
						if sum > quota[lp] {
							continue scan
						}
					}
					accepted[id] = true
					s.marked = append(s.marked, id)
					candidates++
					if !opt.SkipVerify {
						if d := distanceWithin(cand, qw, tau); d >= 0 {
							s.results = append(s.results, id)
							s.dists = append(s.dists, d)
						}
					}
				}
			}
		}
	}
	st.Enumerated += enumerated
	st.Probes += probes
	st.BoxChecks += boxChecks
	st.Candidates += candidates
	st.Results += len(s.results)
	return nil
}

// SearchLinear scans the whole database; it is the ground truth used by
// tests and the naïve baseline cost reference.
func (db *DB) SearchLinear(q bitvec.Vector, tau int) []int {
	var results []int
	for id := 0; id < db.n; id++ {
		if bitvec.HammingAbandon(db.Vector(id), q, tau) >= 0 {
			results = append(results, id)
		}
	}
	return results
}
