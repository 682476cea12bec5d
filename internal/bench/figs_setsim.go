package bench

import (
	"repro/internal/dataset"
	"repro/internal/setsim"
	"repro/internal/tokenset"
)

// sets is a set corpus with its sampled queries.
type sets struct {
	sets, qs []tokenset.Set
}

func enronDBLP(c Config) (enron, dblp sets) {
	mk := func(ss []tokenset.Set) sets { return sets{ss, sample(ss, c.queries(200), c.Seed)} }
	return mk(dataset.Enron(c.n(5000), c.Seed)), mk(dataset.DBLP(c.n(20000), c.Seed))
}

func setCfg(tau float64) setsim.Config {
	// The paper uses a token-universe partition of size 4 (m = 5).
	return setsim.Config{Measure: setsim.Jaccard, Tau: tau, M: 5}
}

// pkwise is the pkwise index searched at chain length l; its
// filter-only pass counts candidates without verifying them.
func (s sets) pkwise(name string, db *setsim.PKWiseDB, l int) method {
	return method{name: name, probe: func(i int, verify bool) (int, int, int) {
		var st setsim.Stats
		var err error
		if verify {
			_, st, err = db.Search(s.qs[i], l)
		} else {
			st, err = db.CountCandidates(s.qs[i], l)
		}
		check(err)
		return st.Candidates, st.Results, 0
	}}
}

// competitor is a Figure 10 baseline. It always verifies: only compare
// runs it, and compare makes no filter-only pass.
func (s sets) competitor(name string, search func(tokenset.Set) ([]int, setsim.Stats, error)) method {
	return method{name: name, probe: func(i int, _ bool) (int, int, int) {
		_, st, err := search(s.qs[i])
		check(err)
		return st.Candidates, st.Results, 0
	}}
}

// Fig6 reproduces Figure 6: the effect of chain length on set
// similarity search — candidates and time versus l ∈ [1..3] for Enron
// and DBLP at Jaccard τ ∈ {0.7, 0.8}. l = 1 is exactly pkwise.
func Fig6(c Config) []Figure {
	ring := func(s sets, tau float64) []method {
		db, err := setsim.NewPKWiseDB(s.sets, setCfg(tau))
		check(err)
		return []method{s.pkwise("Ring(1)", db, 1), s.pkwise("Ring(2)", db, 2), s.pkwise("Ring(3)", db, 3)}
	}
	enron, dblp := enronDBLP(c)
	taus := []float64{0.8, 0.7}
	return append(chain(corpus{"Enron", [2]string{"6a", "6b"}, len(enron.qs), on(enron, ring)}, taus, taus),
		chain(corpus{"DBLP", [2]string{"6c", "6d"}, len(dblp.qs), on(dblp, ring)}, taus, taus)...)
}

// Fig10 reproduces Figure 10: AdaptSearch vs PartAlloc vs pkwise vs
// Ring over the Jaccard threshold sweep τ ∈ [0.7..0.95] on Enron and
// DBLP. Ring uses the paper's tuned chain length l = 2.
func Fig10(c Config) []Figure {
	all := func(s sets, tau float64) []method {
		pk, err := setsim.NewPKWiseDB(s.sets, setCfg(tau))
		check(err)
		ap, err := setsim.NewAllPairsDB(s.sets, setCfg(tau))
		check(err)
		pa, err := setsim.NewPartAllocDB(s.sets, setCfg(tau))
		check(err)
		return []method{s.competitor("AdaptSearch", ap.Search), s.competitor("PartAlloc", pa.Search),
			s.pkwise("pkwise", pk, 1), s.pkwise("Ring", pk, 2)}
	}
	enron, dblp := enronDBLP(c)
	taus := []float64{0.95, 0.9, 0.85, 0.8, 0.75, 0.7}
	return append(compare(corpus{"Enron", [2]string{"10a", "10b"}, len(enron.qs), on(enron, all)}, taus),
		compare(corpus{"DBLP", [2]string{"10c", "10d"}, len(dblp.qs), on(dblp, all)}, taus)...)
}
