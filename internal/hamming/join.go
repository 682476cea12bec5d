package hamming

import "repro/internal/pairs"

// Pair is an unordered result pair of a self-join, with I < J.
type Pair struct {
	I, J int
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
