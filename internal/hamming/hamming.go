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
// SearchRangeAppend are wrappers over one [lo, hi)-restricted loop that
// reads a prepared Query: the query's part values and the cost model's
// sample histograms, which depend on the query alone and not on τ. The
// wrappers prepare into pooled scratch; a caller that searches one
// query at several thresholds (the engine's top-k ladder) prepares it
// once with Prepare and runs each threshold through
// Query.SearchDistAppend.
package hamming

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

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
	// so a query's cost-model histograms cost one xor+popcount per
	// distinct value instead of a part-distance scan over every sample
	// vector.
	sampleVals [][]uint64
	sampleCnts [][]int32
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

// probeChunk is how many ball values the filter enumerates, resolves
// and scans at a time: enough independent lookups in flight to overlap
// their misses, and a bound on scratch however large the ball.
const probeChunk = 256

// Query is a query vector prepared for searches of one DB at any
// threshold: its words, its m part values and the m sample distance
// histograms the cost model allocates thresholds from. Prepare builds
// one; it is read-only afterwards, so one Query may serve concurrent
// searches of its DB.
type Query struct {
	db    *DB
	words []uint64
	parts []uint64
	// hist holds the m histograms back to back: part i's, of length
	// Width(i)+1, starts at Bounds[i]+i (see DB.hist).
	hist []int32
}

// Prepare checks q's dimension against the DB and returns q prepared
// for searching it. The Query copies q's words.
func (db *DB) Prepare(q bitvec.Vector) (*Query, error) {
	pq := &Query{parts: make([]uint64, db.M()), hist: make([]int32, db.part.D+db.M())}
	if err := db.prepare(pq, q); err != nil {
		return nil, err
	}
	pq.words = slices.Clone(pq.words)
	return pq, nil
}

// prepare fills pq, whose parts and hist are already sized for the DB,
// for query q; pq.words aliases q's words.
func (db *DB) prepare(pq *Query, q bitvec.Vector) error {
	if q.Dim() != db.Dim() {
		return fmt.Errorf("hamming: query dimension %d, want %d", q.Dim(), db.Dim())
	}
	pq.db, pq.words = db, q.Words()
	for i := range pq.parts {
		pq.parts[i] = db.box[i].extract(pq.words)
		db.partHist(i, pq.parts[i], db.hist(pq, i))
	}
	return nil
}

// hist returns the view of part i's histogram inside pq's slab.
func (db *DB) hist(pq *Query, i int) []int32 {
	lo := db.part.Bounds[i] + i
	return pq.hist[lo : lo+db.part.Width(i)+1]
}

// searchScratch is the per-search working memory a DB hands out from
// its pool: the accepted-id bitmap (cleared via the marked list on
// release, so clearing costs O(candidates), not O(n)), the query the
// Search wrappers prepare into, the threshold allocator's arrays, the
// probe loop's chunk buffers, and the reusable result buffers (the
// Search wrappers copy them out before returning).
type searchScratch struct {
	accepted []bool
	marked   []int32
	q        Query
	t        []int
	// cost[i] is the cost model's estimate for part i's next threshold
	// increment.
	cost []float64
	// tpre holds the doubled-ring prefix sums of the thresholds for the
	// integer chain check; len 2m+1. quota[lp] is the bound on the box
	// sum of the length-lp chain prefix from the part being probed.
	tpre  []int
	quota []int
	ball  ballEnum
	vals  [probeChunk]uint64
	spans [probeChunk]uint64
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
	s.q.words = nil
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
	if err := checkParts(d, m); err != nil {
		return nil, fmt.Errorf("hamming: %w", err)
	}
	arena := make([]uint64, 0, len(vecs)*((d+63)/64))
	for _, v := range vecs {
		arena = append(arena, v.Words()...)
	}
	return build(arena, d, m), nil
}

// checkParts rejects a part count the equal-width partitioning of d
// dimensions cannot take: one part per dimension at most, and no part
// wider than the 64-bit word its values are read into.
func checkParts(d, m int) error {
	if m < 1 || m > d || (d+m-1)/m > 64 {
		return fmt.Errorf("invalid part count m=%d for d=%d: want %d ≤ m ≤ %d", m, d, max(1, (d+63)/64), d)
	}
	return nil
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

	db.scratch.New = func() any {
		return &searchScratch{
			accepted: make([]bool, db.n),
			q:        Query{parts: make([]uint64, m), hist: make([]int32, db.part.D+m)},
			t:        make([]int, m),
			cost:     make([]float64, m),
			tpre:     make([]int, 2*m+1),
			quota:    make([]int, m+1),
		}
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

// partHist fills h, of length Width(i)+1, with the part-i sample
// distance histogram of a query whose part-i value is qv: h[k] is the
// number of sample vectors whose part i is at distance k. It reads the
// deduplicated sample values and their multiplicities, four values per
// step into four lanes summed at the end, so consecutive increments do
// not wait on one another.
func (db *DB) partHist(i int, qv uint64, h []int32) {
	var lanes [4][65]int32
	vals, cnts := db.sampleVals[i], db.sampleCnts[i]
	cnts = cnts[:len(vals)]
	j := 0
	for ; j+4 <= len(vals); j += 4 {
		lanes[0][bits.OnesCount64(vals[j]^qv)] += cnts[j]
		lanes[1][bits.OnesCount64(vals[j+1]^qv)] += cnts[j+1]
		lanes[2][bits.OnesCount64(vals[j+2]^qv)] += cnts[j+2]
		lanes[3][bits.OnesCount64(vals[j+3]^qv)] += cnts[j+3]
	}
	for ; j < len(vals); j++ {
		lanes[0][bits.OnesCount64(vals[j]^qv)] += cnts[j]
	}
	for k := range h {
		h[k] = lanes[0][k] + lanes[1][k] + lanes[2][k] + lanes[3][k]
	}
}

// allocate chooses integer thresholds t_0..t_{m-1} summing to total,
// written into s.t, for the prepared query pq. The cost model reads
// pq's sample histograms; uniform allocation reads nothing of pq.
// Negative thresholds disable a part (its box can never be viable),
// which is how budgets below zero per part are expressed.
func (db *DB) allocate(pq *Query, total int, mode Allocation, s *searchScratch) []int {
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
	// estimated to be cheapest, the lowest part on ties. The estimate
	// is the number of sample vectors at part distance exactly t+1
	// (scaled to the database) plus the marginal ball-enumeration cost.
	// Only the chosen part's estimate changes, so it alone is
	// recomputed after each increment.
	for i := range t {
		t[i] = -1
	}
	increments := total + m
	if increments <= 0 {
		return t
	}
	scale := float64(db.n) / float64(len(db.sample))
	const enumWeight = 0.5 // relative cost of probing one ball value
	marginal := func(i int) float64 {
		next := t[i] + 1
		w := db.part.Width(i)
		if next > w {
			return float64(1 << 62) // cannot widen further
		}
		cands := float64(db.hist(pq, i)[next]) * scale
		balls := binom(w, next) * enumWeight
		return cands + balls
	}
	cost := s.cost
	for i := range cost {
		cost[i] = marginal(i)
	}
	for step := 0; step < increments; step++ {
		best := 0
		for i := 1; i < m; i++ {
			if cost[i] < cost[best] {
				best = i
			}
		}
		t[best]++
		cost[best] = marginal(best)
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
	if err := db.prepare(&s.q, q); err != nil {
		return nil, nil, st, err
	}
	if err := db.filter(s, &s.q, tau, opt, 0, db.n, &st); err != nil {
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

// SearchDistAppend runs SearchDist's search at threshold tau for the
// prepared query, appending the result ids and their distances, pair
// for pair in unspecified order, to ids and dists, and accumulating
// statistics into st. Thresholds is left alone, so a caller that
// reuses ids, dists and st across thresholds — the engine's top-k
// ladder — searches with no steady-state allocation.
func (pq *Query) SearchDistAppend(tau int, opt Options, ids, dists []int, st *Stats) ([]int, []int, error) {
	db := pq.db
	s := db.getScratch()
	defer db.putScratch(s)
	if err := db.filter(s, pq, tau, opt, 0, db.n, st); err != nil {
		return ids, dists, err
	}
	for i, id := range s.results {
		ids = append(ids, int(id))
		dists = append(dists, s.dists[i])
	}
	return ids, dists, nil
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
	if err := db.prepare(&s.q, q); err != nil {
		return dst, err
	}
	if err := db.filter(s, &s.q, tau, opt, lo, hi, st); err != nil {
		return dst, err
	}
	slices.Sort(s.results)
	dst = slices.Grow(dst, len(s.results))
	for _, id := range s.results {
		dst = append(dst, int64(id))
	}
	return dst, nil
}

// filter is the one search loop: it probes the index for the prepared
// query pq at threshold tau, restricted to ids in [lo, hi) (clamped to
// the corpus), leaves the verified ids and their distances in
// s.results/s.dists in probe order, and adds the work done to st.
// Posting lists are ascending-id by construction, so the restriction
// costs two binary searches per non-empty list, skipped when the window
// is the corpus.
func (db *DB) filter(s *searchScratch, pq *Query, tau int, opt Options, lo, hi int, st *Stats) error {
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
	qw, qParts, box := pq.words, pq.parts, db.box
	t := db.allocate(pq, total, opt.Alloc, s)

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
