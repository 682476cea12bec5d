package graph

import "slices"

// labelRun is one entry of a part signature: n of the part's vertices
// (or edges) carry the label whose dictionary id is id.
type labelRun struct{ id, n int32 }

// partSigs holds the label signature of every part of every graph, the
// input of the box screen. Part p = id·m + i owns the vertex-label runs
// runs[off[2p]:off[2p+1]] and the edge-label runs
// runs[off[2p+1]:off[2p+2]]. Wildcard vertices have no run: they match
// any query vertex. A label's id is its index in vdict (vertex labels)
// or edict (edge labels), both sorted and distinct.
type partSigs struct {
	vdict, edict []int32
	runs         []labelRun
	off          []int32
}

// buildPartSigs counts the labels of every part into one arena.
func buildPartSigs(parts [][]*Graph) partSigs {
	// Pass 1 lists every part's labels, part after part; pass 2 walks
	// the parts in the same order, consuming one dictionary id per
	// label.
	var vls, els []int32
	nparts := 0
	for _, ps := range parts {
		nparts += len(ps)
		for _, p := range ps {
			for _, l := range p.vlab {
				if l != Wildcard {
					vls = append(vls, l)
				}
			}
			els = p.appendEdgeLabels(els)
		}
	}
	var s partSigs
	var vids, eids []int32
	s.vdict, vids = denseIDs(vls)
	s.edict, eids = denseIDs(els)
	vcount := make([]int32, len(s.vdict))
	ecount := make([]int32, len(s.edict))
	var touched []int32
	s.off = make([]int32, 1, 2*nparts+1)
	for _, ps := range parts {
		for _, p := range ps {
			for _, l := range p.vlab {
				if l != Wildcard {
					touched = countID(vcount, touched, vids[0])
					vids = vids[1:]
				}
			}
			s.runs, touched = flushRuns(s.runs, vcount, touched)
			s.off = append(s.off, int32(len(s.runs)))
			for _, id := range eids[:p.e] {
				touched = countID(ecount, touched, id)
			}
			eids = eids[p.e:]
			s.runs, touched = flushRuns(s.runs, ecount, touched)
			s.off = append(s.off, int32(len(s.runs)))
		}
	}
	// Trim the arena to its length: it lives as long as the DB.
	s.runs = slices.Clone(s.runs)
	return s
}

// denseIDs returns the distinct values of ls in ascending order and,
// for each element of ls, its index among them.
func denseIDs(ls []int32) (dict, ids []int32) {
	dict = slices.Clone(ls)
	slices.Sort(dict)
	dict = slices.Clone(slices.Compact(dict))
	ids = make([]int32, len(ls))
	for i, l := range ls {
		id, _ := slices.BinarySearch(dict, l)
		ids[i] = int32(id)
	}
	return dict, ids
}

// countID adds one to counts[id], noting id in touched the first time.
func countID(counts, touched []int32, id int32) []int32 {
	if counts[id] == 0 {
		touched = append(touched, id)
	}
	counts[id]++
	return touched
}

// flushRuns appends one run per touched id and zeroes its count.
func flushRuns(runs []labelRun, counts, touched []int32) ([]labelRun, []int32) {
	for _, id := range touched {
		runs = append(runs, labelRun{id, counts[id]})
		counts[id] = 0
	}
	return runs, touched[:0]
}

// countQuery fills qv and qe with q's label counts over the
// dictionaries. A label outside a dictionary counts for nothing: no
// part carries it, so no part vertex or edge can map onto it.
func (s *partSigs) countQuery(q *Graph, qv, qe []int32) ([]int32, []int32) {
	qv = growInt32s(qv, len(s.vdict))
	qe = growInt32s(qe, len(s.edict))
	clear(qv)
	clear(qe)
	for _, l := range q.vlab {
		if id, ok := slices.BinarySearch(s.vdict, l); ok {
			qv[id]++
		}
	}
	for u := 0; u < q.n; u++ {
		for _, l := range q.elab[u*q.n+u+1 : (u+1)*q.n] {
			if l < 0 {
				continue
			}
			if id, ok := slices.BinarySearch(s.edict, l); ok {
				qe[id]++
			}
		}
	}
	return qv, qe
}

// bound is the box screen: a lower bound on the number of deletions
// after which part p (pn vertices) embeds into a query of qn vertices
// whose label counts are qv and qe. A variant embeds into q only if,
// for every label, it has no more vertices (edges) with that label
// than q, and no more vertices than q. Deleting an edge lowers only
// the edge excess, by at most 1; a wildcard or an isolated-vertex
// deletion lowers only the two vertex terms, by at most 1 each. So
// max(vertex excess, pn − qn) + edge excess deletions are needed.
func (s *partSigs) bound(p, pn, qn int, qv, qe []int32) int {
	vx, ex := 0, 0
	for _, r := range s.runs[s.off[2*p]:s.off[2*p+1]] {
		if d := r.n - qv[r.id]; d > 0 {
			vx += int(d)
		}
	}
	for _, r := range s.runs[s.off[2*p+1]:s.off[2*p+2]] {
		if d := r.n - qe[r.id]; d > 0 {
			ex += int(d)
		}
	}
	return max(vx, pn-qn) + ex
}
