package bench

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/strdist"
)

// strs is a string corpus with its sampled queries and the paper's
// gram length for each threshold.
type strs struct {
	strs, qs []string
	kappa    func(tau int) int
}

func imdbPubMed(c Config) (imdb, pubmed strs) {
	mk := func(ss []string, kappa func(int) int) strs {
		return strs{ss, sample(ss, c.queries(200), c.Seed), kappa}
	}
	// §8.1: κ = 3, 2, 2, 2 for τ = 1..4 on IMDB.
	imdb = mk(dataset.IMDB(c.n(20000), c.Seed), func(tau int) int {
		if tau <= 1 {
			return 3
		}
		return 2
	})
	// §8.1: κ = 8, 6, 6, 4, 4 for τ = 4, 6, 8, 10, 12 on PubMed.
	pubmed = mk(dataset.PubMed(c.n(5000), c.Seed), func(tau int) int {
		switch {
		case tau <= 4:
			return 8
		case tau <= 8:
			return 6
		default:
			return 4
		}
	})
	return imdb, pubmed
}

func (s strs) db(tau int) *strdist.DB {
	dict, err := strdist.BuildGramDict(s.strs, s.kappa(tau))
	check(err)
	db, err := strdist.NewDB(s.strs, dict, tau)
	check(err)
	return db
}

// method runs db with opt. Pivotal is two-stage: the pivotal prefix
// filter's survivors are its Cand-1, the alignment filter's its Cand-2.
// Fallback strings, which skip the filters, count in both stages.
func (s strs) method(name string, db *strdist.DB, opt strdist.Options) method {
	return method{name: name, twoStage: !opt.Ring, probe: func(i int, verify bool) (int, int, int) {
		opt.SkipVerify = !verify
		_, st, err := db.Search(s.qs[i], opt)
		check(err)
		return st.Cand2 + st.Fallback, st.Results, st.Cand1 + st.Fallback
	}}
}

// Fig7 reproduces Figure 7: the effect of chain length on string edit
// distance search — candidates and time versus l ∈ [1..min(4, τ+1)] for
// IMDB (τ ∈ {2, 4}) and PubMed (τ ∈ {6, 12}).
func Fig7(c Config) []Figure {
	ring := func(s strs, tau float64) []method {
		db := s.db(int(tau))
		var ms []method
		for l := 1; l <= min(4, int(tau)+1); l++ {
			ms = append(ms, s.method(fmt.Sprintf("Ring(%d)", l), db, strdist.RingOptions(l)))
		}
		return ms
	}
	imdb, pubmed := imdbPubMed(c)
	return append(chain(corpus{"IMDB", [2]string{"7a", "7b"}, len(imdb.qs), on(imdb, ring)}, []float64{2, 4}, []float64{2, 4}),
		chain(corpus{"PubMed", [2]string{"7c", "7d"}, len(pubmed.qs), on(pubmed, ring)}, []float64{6, 12}, []float64{6, 12})...)
}

// Fig11 reproduces Figure 11: Pivotal versus Ring over the threshold
// sweep — IMDB τ ∈ [1..4], PubMed τ ∈ [4..12]. Pivotal's candidates
// are split into Cand-1 (pivotal prefix filter) and Cand-2 (alignment
// filter); Ring's candidate count is its chain-filter survivors. Ring
// uses the paper's tuned chain length l = min(3, τ+1).
func Fig11(c Config) []Figure {
	pivotalRing := func(s strs, tau float64) []method {
		db := s.db(int(tau))
		return []method{s.method("Pivotal", db, strdist.PivotalOptions()),
			s.method("Ring", db, strdist.RingOptions(min(3, int(tau)+1)))}
	}
	imdb, pubmed := imdbPubMed(c)
	return append(compare(corpus{"IMDB", [2]string{"11a", "11b"}, len(imdb.qs), on(imdb, pivotalRing)}, []float64{1, 2, 3, 4}),
		compare(corpus{"PubMed", [2]string{"11c", "11d"}, len(pubmed.qs), on(pubmed, pivotalRing)}, []float64{4, 6, 8, 10, 12})...)
}
