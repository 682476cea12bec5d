package graph

import (
	"fmt"
	"math"

	"repro/internal/snapshot"
)

// AppendSnapshot adds the DB's sections to b under the given name
// prefix: τ and the graphs. The parts, the label runs of parts and
// graphs, and the size array are derived data that OpenSnapshotAt
// rebuilds, so a file cannot carry a partition or a signature that
// disagrees with its graphs.
func (db *DB) AppendSnapshot(b *snapshot.Builder, prefix string) error {
	b.AddU64s(prefix+"meta", []uint64{uint64(db.tau), uint64(len(db.graphs))})
	appendGraphs(b, prefix+"g.", db.graphs)
	return nil
}

// appendGraphs flattens a graph list into four sections: cumulative
// vertex offsets, vertex labels, cumulative edge offsets, and edges as
// (u, v, label) triples.
func appendGraphs(b *snapshot.Builder, prefix string, gs []*Graph) {
	vLens := make([]int, len(gs))
	eLens := make([]int, len(gs))
	var vlab []int32
	var edges []int32
	for i, g := range gs {
		vLens[i] = g.n
		eLens[i] = g.e
		vlab = append(vlab, g.vlab...)
		for u := 0; u < g.n; u++ {
			for v := u + 1; v < g.n; v++ {
				if l := g.elab[u*g.n+v]; l >= 0 {
					edges = append(edges, int32(u), int32(v), l)
				}
			}
		}
	}
	b.AddU64s(prefix+"voff", snapshot.Offsets(vLens))
	b.AddI32s(prefix+"vlab", vlab)
	b.AddU64s(prefix+"eoff", snapshot.Offsets(eLens))
	b.AddI32s(prefix+"edges", edges)
}

// readGraphs is the inverse of appendGraphs; count is the expected
// number of graphs. Every offset is bounded by the payload actually
// present before it slices or sizes anything, and a graph may have at
// most MaxVertices vertices; any violation wraps snapshot.ErrFormat.
func readGraphs(rd *snapshot.Reader, prefix string, count uint64) ([]*Graph, error) {
	bad := func(format string, args ...any) ([]*Graph, error) {
		return nil, fmt.Errorf("%w: %s: "+format, append([]any{snapshot.ErrFormat, prefix}, args...)...)
	}
	voff, err := rd.U64s(prefix + "voff")
	if err != nil {
		return nil, err
	}
	vlab, err := rd.I32s(prefix + "vlab")
	if err != nil {
		return nil, err
	}
	eoff, err := rd.U64s(prefix + "eoff")
	if err != nil {
		return nil, err
	}
	edges, err := rd.I32s(prefix + "edges")
	if err != nil {
		return nil, err
	}
	if uint64(len(voff)) != count+1 || uint64(len(eoff)) != count+1 {
		return bad("%d vertex and %d edge offsets, want %d graphs", len(voff), len(eoff), count)
	}
	nv, ne := uint64(len(vlab)), uint64(len(edges)/3)
	if voff[count] != nv || eoff[count] != ne || len(edges)%3 != 0 {
		return bad("label/edge regions disagree with offsets")
	}
	gs := make([]*Graph, count)
	for i := range gs {
		vlo, vhi := voff[i], voff[i+1]
		elo, ehi := eoff[i], eoff[i+1]
		if vlo > vhi || vhi > nv || elo > ehi || ehi > ne {
			return bad("offsets not monotone at graph %d", i)
		}
		if vhi-vlo > MaxVertices {
			return bad("graph %d has %d vertices, more than %d", i, vhi-vlo, MaxVertices)
		}
		g := New(int(vhi - vlo))
		copy(g.vlab, vlab[vlo:vhi])
		for e := edges[3*elo : 3*ehi]; len(e) > 0; e = e[3:] {
			u, v, l := e[0], e[1], e[2]
			if u < 0 || v <= u || int(v) >= g.n || l < 0 {
				return bad("graph %d has invalid edge (%d,%d,%d)", i, u, v, l)
			}
			g.AddEdge(int(u), int(v), l)
		}
		gs[i] = g
	}
	return gs, nil
}

// OpenSnapshotAt reconstructs a DB from the section group under the
// given prefix of an already-opened container: it reads the graphs and
// builds the index from them exactly as NewDB does. Files written while
// the parts were still stored open too; their p.* sections are ignored.
// A group that is structurally wrong fails with an error wrapping
// snapshot.ErrFormat.
func OpenSnapshotAt(rd *snapshot.Reader, prefix string) (*DB, error) {
	fail := func(err error) (*DB, error) {
		return nil, fmt.Errorf("graph: snapshot %q: %w", prefix, err)
	}
	meta, err := rd.U64s(prefix + "meta")
	if err != nil {
		return fail(err)
	}
	if len(meta) != 2 {
		return fail(fmt.Errorf("%w: meta has %d fields, want 2", snapshot.ErrFormat, len(meta)))
	}
	if meta[0] > MaxTau || meta[1] > math.MaxInt32 {
		return fail(fmt.Errorf("%w: implausible τ=%d n=%d", snapshot.ErrFormat, meta[0], meta[1]))
	}
	graphs, err := readGraphs(rd, prefix+"g.", meta[1])
	if err != nil {
		return fail(err)
	}
	return NewDB(graphs, int(meta[0]))
}
