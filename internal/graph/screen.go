package graph

import "slices"

// labelRun is one entry of a part signature: n of the part's vertices
// (or edges) carry the label whose dictionary id is id.
type labelRun struct{ id, n int32 }

// partSigs holds the label signature of every part of every graph, the
// input of the box screen, and of every whole graph, the input of GED's
// label bound. Signature k owns the vertex-label runs
// runs[off[2k]:off[2k+1]] and the edge-label runs
// runs[off[2k+1]:off[2k+2]]: part p = id·m + i is signature p, and
// graph id is signature nparts + id. A label's id is its index in vdict
// (vertex labels) or edict (edge labels), both sorted and distinct and
// covering every label of every graph, including edge labels carried
// only between parts. A part has no run for its Wildcard vertices: they
// match any query vertex. To GED a Wildcard is an ordinary label, so a
// graph counts its Wildcard vertices in one run with the reserved id
// len(vdict).
type partSigs struct {
	vdict, edict []int32
	runs         []labelRun
	off          []int32
	nparts       int
}

// buildPartSigs counts the labels of every part (parts[p] is part p)
// and of every graph into one arena.
func buildPartSigs(graphs []*Graph, parts []Graph) partSigs {
	// Pass 1 lists the labels of every part, part after part, then of
	// every graph; pass 2 walks them in the same order, consuming one
	// dictionary id per label.
	nv, ne := 0, 0
	for p := range parts {
		nv, ne = nv+parts[p].n, ne+parts[p].e
	}
	for _, g := range graphs {
		nv, ne = nv+g.n, ne+g.e
	}
	vls, els := make([]int32, 0, nv), make([]int32, 0, ne)
	appendLabels := func(g *Graph) {
		for _, l := range g.vlab {
			if l != Wildcard {
				vls = append(vls, l)
			}
		}
		els = g.appendEdgeLabels(els)
	}
	for p := range parts {
		appendLabels(&parts[p])
	}
	for _, g := range graphs {
		appendLabels(g)
	}
	s := partSigs{nparts: len(parts)}
	var vids, eids []int32
	s.vdict, vids = denseIDs(vls)
	s.edict, eids = denseIDs(els)
	wild := int32(len(s.vdict))
	vcount := make([]int32, len(s.vdict)+1)
	ecount := make([]int32, len(s.edict))
	var touched []int32
	s.off = make([]int32, 1, 2*(len(parts)+len(graphs))+1)
	count := func(g *Graph, wildRun bool) {
		for _, l := range g.vlab {
			switch {
			case l != Wildcard:
				touched = countID(vcount, touched, vids[0])
				vids = vids[1:]
			case wildRun:
				touched = countID(vcount, touched, wild)
			}
		}
		s.runs, touched = flushRuns(s.runs, vcount, touched)
		s.off = append(s.off, int32(len(s.runs)))
		for _, id := range eids[:g.e] {
			touched = countID(ecount, touched, id)
		}
		eids = eids[g.e:]
		s.runs, touched = flushRuns(s.runs, ecount, touched)
		s.off = append(s.off, int32(len(s.runs)))
	}
	for p := range parts {
		count(&parts[p], false)
	}
	for _, g := range graphs {
		count(g, true)
	}
	// Trim the arena to its length: it lives as long as the DB.
	s.runs = slices.Clone(s.runs)
	return s
}

// denseIDs returns the distinct values of ls in ascending order and,
// for each element of ls, its index among them. A label range no wider
// than a few times len(ls) is numbered through a direct table; a wider
// one is sorted and each label binary-searched back.
func denseIDs(ls []int32) (dict, ids []int32) {
	ids = make([]int32, len(ls))
	if len(ls) == 0 {
		return nil, ids
	}
	lo, hi := slices.Min(ls), slices.Max(ls)
	if span := int64(hi) - int64(lo) + 1; span <= 4*int64(len(ls))+256 {
		// table[l−lo] is 1 for a present label, then its id.
		table := make([]int32, span)
		for _, l := range ls {
			table[l-lo] = 1
		}
		distinct := 0
		for _, c := range table {
			distinct += int(c)
		}
		dict = make([]int32, 0, distinct)
		for k, c := range table {
			if c != 0 {
				table[k] = int32(len(dict))
				dict = append(dict, lo+int32(k))
			}
		}
		for i, l := range ls {
			ids[i] = table[l-lo]
		}
		return dict, ids
	}
	dict = slices.Clone(ls)
	slices.Sort(dict)
	dict = slices.Clone(slices.Compact(dict))
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
// dictionaries; qv's last entry, at the reserved id len(vdict), counts
// q's Wildcard vertices. A label outside a dictionary counts for
// nothing: no part or graph carries it, so no vertex or edge can map
// onto it, and it adds nothing to a label intersection.
func (s *partSigs) countQuery(q *Graph, qv, qe []int32) ([]int32, []int32) {
	qv = growInt32s(qv, len(s.vdict)+1)
	qe = growInt32s(qe, len(s.edict))
	clear(qv)
	clear(qe)
	for _, l := range q.vlab {
		if l == Wildcard {
			qv[len(s.vdict)]++
		} else if id, ok := slices.BinarySearch(s.vdict, l); ok {
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

// gedBound is LabelLowerBound between graph id (nx vertices, ex edges)
// and a query of nq vertices and eq edges whose label counts are qv
// and qe: max(nx, nq) − |V_x ∩ V_q| + max(ex, eq) − |E_x ∩ E_q|, each
// intersection summed over the graph's runs as Σ min(run, q's count).
// The runs hold every label of the graph, Wildcard included, so the
// sums are the multiset intersections exactly. Once the vertex term
// alone exceeds limit the edge term, never negative, cannot bring the
// bound back to limit, so that term is returned without reading the
// edge runs: a result above limit reads only "more than limit".
func (s *partSigs) gedBound(id, nx, ex, nq, eq int, qv, qe []int32, limit int) int {
	k := s.nparts + id
	vi, ei := 0, 0
	for _, r := range s.runs[s.off[2*k]:s.off[2*k+1]] {
		vi += int(min(r.n, qv[r.id]))
	}
	b := max(nx, nq) - vi
	if b > limit {
		return b
	}
	for _, r := range s.runs[s.off[2*k+1]:s.off[2*k+2]] {
		ei += int(min(r.n, qe[r.id]))
	}
	return b + max(ex, eq) - ei
}
