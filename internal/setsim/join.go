package setsim

import (
	"repro/internal/pairs"
)

// Pair is an unordered result pair of a self-join, with I < J.
type Pair struct {
	I, J int
}

// JoinLinear is the quadratic reference join used by tests, scanning
// under the DB's own Config like the other backends' method forms.
func (db *PKWiseDB) JoinLinear() []Pair {
	var out []Pair
	for i := range db.sets {
		for _, j := range SearchLinear(db.sets, db.sets[i], db.cfg) {
			if j < i {
				out = append(out, Pair{I: j, J: i})
			}
		}
	}
	pairs.Sort(out)
	return out
}
