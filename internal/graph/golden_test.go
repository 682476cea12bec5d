package graph_test

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// goldenPath pins what the filter and verifier answer on three seeded
// corpora: ids and the Candidates / BoxChecks / Results counters of
// every search. A kernel change that keeps the paper's semantics
// leaves every line identical.
const goldenPath = "testdata/search-golden.txt"

// goldenLines runs Pars and Ring(l) for every l in 1…τ+1 at τ 1–3 over
// a sampled AIDS and Protein corpus and the mixed corpus of
// mixedCorpus. Most queries are corpus members; the rest come from a
// differently seeded generator, so some of their labels are unknown to
// the index.
func goldenLines(t testing.TB) []string {
	t.Helper()
	mixed, mixedForeign := mixedCorpus()
	corpora := []struct {
		name    string
		graphs  []*graph.Graph
		foreign []*graph.Graph
	}{
		{"aids", dataset.AIDS(300, 11), dataset.AIDS(6, 12)},
		{"protein", dataset.Protein(150, 11), dataset.Protein(6, 12)},
		{"mixed", mixed, mixedForeign},
	}
	var out []string
	for _, c := range corpora {
		var qs []*graph.Graph
		for _, id := range dataset.SampleQueries(len(c.graphs), 24, 13) {
			qs = append(qs, c.graphs[id])
		}
		qs = append(qs, c.foreign...)
		for tau := 1; tau <= 3; tau++ {
			db, err := graph.NewDB(c.graphs, tau)
			if err != nil {
				t.Fatal(err)
			}
			opts := []graph.Options{graph.ParsOptions()}
			for l := 1; l <= tau+1; l++ {
				opts = append(opts, graph.RingOptions(l))
			}
			for qi, q := range qs {
				for _, opt := range opts {
					ids, st, err := db.Search(q, opt)
					if err != nil {
						t.Fatal(err)
					}
					name := "pars"
					if opt.ChainLength > 0 {
						name = fmt.Sprintf("ring%d", opt.ChainLength)
					}
					out = append(out, fmt.Sprintf("%s tau=%d q=%d %s cand=%d box=%d res=%d ids=%s",
						c.name, tau, qi, name, st.Candidates, st.BoxChecks, st.Results, joinInts(ids)))
				}
			}
		}
	}
	return out
}

// mixedCorpus returns AIDS-like graphs with the shapes the two plain
// corpora lack, and foreign queries for it. About one vertex in six is
// a Wildcard. Every eighth graph has 0–3 vertices, so some of its parts
// are empty, and every other one of those is all Wildcards. In every
// sixteenth graph the first of its four BFSPartitioner parts is all
// Wildcards, so at τ = 3 a part with vertices has no label either. Half the
// vertices of the first four foreign queries carry labels no corpus
// graph has; the fifth has Wildcard vertices of its own, and the last
// two are the empty graph and a single vertex.
func mixedCorpus() (graphs, foreign []*graph.Graph) {
	for id, g := range dataset.AIDS(120, 21) {
		x := g.Clone()
		if id%8 == 0 {
			vs := make([]int, id/8%4)
			for v := range vs {
				vs[v] = v
			}
			x = g.InducedSubgraph(vs)
		}
		for v := 0; v < x.N(); v++ {
			if id%16 == 8 || (id*7+v)%6 == 0 {
				x.SetVertexLabel(v, graph.Wildcard)
			}
		}
		if id%16 == 4 {
			for _, v := range graph.BFSPartitioner(x, 4)[0] {
				x.SetVertexLabel(v, graph.Wildcard)
			}
		}
		graphs = append(graphs, x)
	}
	for i, g := range dataset.AIDS(5, 22) {
		x := g.Clone()
		for v := 0; v < x.N(); v += 2 {
			if i < 4 {
				x.SetVertexLabel(v, 1000+x.VertexLabel(v))
			} else {
				x.SetVertexLabel(v, graph.Wildcard)
			}
		}
		foreign = append(foreign, x)
	}
	one := graph.New(1)
	one.SetVertexLabel(0, 3)
	return graphs, append(foreign, graph.New(0), one)
}

func joinInts(xs []int) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprint(&b, x)
	}
	return b.String()
}

// TestSearchMatchesGolden: every search answers the recorded ids and
// counters, line for line.
func TestSearchMatchesGolden(t *testing.T) {
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := goldenLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d searches, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("line %d:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}
}
