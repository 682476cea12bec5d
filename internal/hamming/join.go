package hamming

import "repro/internal/pairs"

// Pair is an unordered result pair of a self-join, with I < J.
type Pair struct {
	I, J int
}

// Join returns every pair of distinct indexed vectors within Hamming
// distance tau, ordered by (I, J). It is the batch variant of Search —
// the similarity-join setting that most of the pigeonhole literature
// the paper builds on (GPH, PassJoin, PartAlloc) targets. Each vector
// is used as a query against the shared index and only partners with a
// smaller id are kept, so every pair is produced exactly once and the
// pigeonring filter applies unchanged.
func (db *DB) Join(tau int, opt Options) ([]Pair, Stats, error) {
	var out []Pair
	var agg Stats
	for i := 0; i < db.Len(); i++ {
		res, st, err := db.Search(db.Vector(i), tau, opt)
		if err != nil {
			return nil, agg, err
		}
		agg.Candidates += st.Candidates
		agg.Probes += st.Probes
		agg.Enumerated += st.Enumerated
		agg.BoxChecks += st.BoxChecks
		for _, j := range res {
			if j < i {
				out = append(out, Pair{I: j, J: i})
			}
		}
	}
	agg.Results = len(out)
	pairs.Sort(out)
	return out, agg, nil
}

// JoinLinear is the quadratic reference join used by tests.
func (db *DB) JoinLinear(tau int) []Pair {
	var out []Pair
	for i := 0; i < db.Len(); i++ {
		for _, j := range db.SearchLinear(db.Vector(i), tau) {
			if j < i {
				out = append(out, Pair{I: j, J: i})
			}
		}
	}
	pairs.Sort(out)
	return out
}
