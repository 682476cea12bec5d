package graph

import "sync"

// kernelScratch is the pooled match state of the subgraph-isomorphism
// and GED kernels. The kernels recurse on one scratch but never overlap
// two independent top-level invocations, so a DB search holds a single
// scratch for every budget-0 box test and verification of a query; the
// exported entry points (SubgraphIsomorphic, GEDWithin) draw from a
// package pool instead.
type kernelScratch struct {
	// Subgraph isomorphism state: the match order (order, the
	// placed-neighbour counts conn and the induced degrees deg), the
	// pattern copied into it (pat, with all its vertex list), and the
	// backtracking mapping.
	order []int
	conn  []int
	deg   []int
	all   []int
	pat   Graph
	phi   []int
	used  []bool
	// GED branch-and-bound state.
	ged gedState
}

var kernelPool = sync.Pool{New: func() any { return new(kernelScratch) }}

func getKernel() *kernelScratch   { return kernelPool.Get().(*kernelScratch) }
func putKernel(ks *kernelScratch) { kernelPool.Put(ks) }

// growInts returns b with length n, reusing its backing array when it
// is large enough. Contents are unspecified.
func growInts(b []int, n int) []int {
	if cap(b) < n {
		return make([]int, n)
	}
	return b[:n]
}

// growIntsZero is growInts with every element reset to zero.
func growIntsZero(b []int, n int) []int {
	b = growInts(b, n)
	clear(b)
	return b
}

// growInt32s is growInts for int32 slices.
func growInt32s(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

// growBoolsClear returns b with length n and every element false.
func growBoolsClear(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	clear(b)
	return b
}
