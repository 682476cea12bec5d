package bench

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// graphs is a graph corpus with its sampled queries.
type graphs struct {
	graphs, qs []*graph.Graph
}

// aidsProtein caps queries tighter than the other problems: GED
// verification is the most expensive in the suite.
func aidsProtein(c Config) (aids, protein graphs) {
	mk := func(gs []*graph.Graph) graphs { return graphs{gs, sample(gs, c.queries(20), c.Seed)} }
	return mk(dataset.AIDS(c.n(800), c.Seed)), mk(dataset.Protein(c.n(400), c.Seed))
}

func (g graphs) db(tau float64) *graph.DB {
	db, err := graph.NewDB(g.graphs, int(tau))
	check(err)
	return db
}

func (g graphs) method(name string, db *graph.DB, opt graph.Options) method {
	return method{name: name, probe: func(i int, verify bool) (int, int, int) {
		opt.SkipVerify = !verify
		_, st, err := db.Search(g.qs[i], opt)
		check(err)
		return st.Candidates, st.Results, 0
	}}
}

// Fig8 reproduces Figure 8: the effect of chain length on graph edit
// distance search — candidates and time versus l ∈ [1..5] for AIDS and
// Protein at τ ∈ {4, 5}. Every l runs after the search's whole-graph
// screen (size, then label bound), so the curves show only what the
// chains remove beyond the screen. On AIDS, whose many labels make the
// label bound tight, that is little: at the test scale every AIDS
// candidate curve is flat at the screen's count.
func Fig8(c Config) []Figure {
	ring := func(g graphs, tau float64) []method {
		db := g.db(tau)
		var ms []method
		for l := 1; l <= 5; l++ {
			ms = append(ms, g.method(fmt.Sprintf("Ring(%d)", l), db, graph.RingOptions(l)))
		}
		return ms
	}
	aids, protein := aidsProtein(c)
	taus := []float64{4, 5}
	return append(chain(corpus{"AIDS", [2]string{"8a", "8b"}, len(aids.qs), on(aids, ring)}, taus, taus),
		chain(corpus{"Protein", [2]string{"8c", "8d"}, len(protein.qs), on(protein, ring)}, taus, taus)...)
}

// Fig12 reproduces Figure 12: Pars versus Ring over the threshold
// sweep τ ∈ [1..5] on AIDS and Protein. §8.2 tunes Ring's chain length
// within [τ−2, τ]; small thresholds need the full chain to have any
// effect, so Ring uses l = τ below τ = 4 and l = τ−1 from τ = 4. Pars
// and Ring both run after the whole-graph screen, as in Fig8, so they
// differ only on graphs it keeps.
func Fig12(c Config) []Figure {
	parsRing := func(g graphs, tau float64) []method {
		l := int(tau)
		if l >= 4 {
			l--
		}
		db := g.db(tau)
		return []method{g.method("Pars", db, graph.ParsOptions()), g.method("Ring", db, graph.RingOptions(l))}
	}
	aids, protein := aidsProtein(c)
	taus := []float64{1, 2, 3, 4, 5}
	return append(compare(corpus{"AIDS", [2]string{"12a", "12b"}, len(aids.qs), on(aids, parsRing)}, taus),
		compare(corpus{"Protein", [2]string{"12c", "12d"}, len(protein.qs), on(protein, parsRing)}, taus)...)
}
