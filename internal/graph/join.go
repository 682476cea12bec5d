package graph

import "repro/internal/pairs"

// Pair is an unordered result pair of a self-join, with I < J.
type Pair struct {
	I, J int
}

// JoinLinear is the quadratic reference join used by tests.
func (db *DB) JoinLinear() []Pair {
	var out []Pair
	for i := 0; i < db.Len(); i++ {
		for j := 0; j < i; j++ {
			if GEDWithin(db.graphs[i], db.graphs[j], db.tau) >= 0 {
				out = append(out, Pair{I: j, J: i})
			}
		}
	}
	pairs.Sort(out)
	return out
}
