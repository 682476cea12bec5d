package bench

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/dataset"
	"repro/internal/hamming"
)

// vectors is an indexed Hamming corpus with its sampled queries.
type vectors struct {
	db *hamming.DB
	qs []bitvec.Vector
}

// gistSift builds GIST and SIFT, indexed at the paper's m = ⌊d/16⌋,
// which it sets for the best overall time.
func gistSift(c Config) (gist, sift vectors) {
	build := func(vecs []bitvec.Vector) vectors {
		db, err := hamming.NewDB(vecs, vecs[0].Dim()/16)
		check(err)
		return vectors{db, sample(vecs, c.queries(200), c.Seed)}
	}
	return build(dataset.GIST(c.n(20000), c.Seed)), build(dataset.SIFT(c.n(20000), c.Seed))
}

func (v vectors) method(name string, tau float64, opt hamming.Options) method {
	return method{name: name, probe: func(i int, verify bool) (int, int, int) {
		opt.SkipVerify = !verify
		res, st, err := v.db.Search(v.qs[i], int(tau), opt)
		check(err)
		return st.Candidates, len(res), 0
	}}
}

// Fig5 reproduces Figure 5: the effect of chain length on Hamming
// distance search — average candidates and average search time versus
// l for GIST and SIFT.
//
// The paper plots GIST candidates at τ ∈ {96, 128}; on the synthetic
// stand-in the background vectors are uniform, so τ = 128 = d/2 would
// select half the database. The candidate panel therefore uses
// τ ∈ {64, 96}, which exercises the same regimes (all results in
// clusters / results plus distance tail).
func Fig5(c Config) []Figure {
	ring := func(v vectors, tau float64) []method {
		var ms []method
		for l := 1; l <= 8; l++ {
			ms = append(ms, v.method(fmt.Sprintf("Ring(%d)", l), tau, hamming.RingOptions(l)))
		}
		return ms
	}
	gist, sift := gistSift(c)
	figs := chain(corpus{"GIST", [2]string{"5a", "5b"}, len(gist.qs), on(gist, ring)}, []float64{64, 96}, []float64{48, 64})
	figs[0].Notes = []string{"paper uses tau in {96,128}; shifted to {64,96} for the uniform-background stand-in"}
	return append(figs, chain(corpus{"SIFT", [2]string{"5c", "5d"}, len(sift.qs), on(sift, ring)}, []float64{96, 128}, []float64{96, 128})...)
}

// Fig9 reproduces Figure 9: GPH versus Ring over a threshold sweep —
// average candidates and search time on GIST (τ ∈ [8..64]) and SIFT
// (τ ∈ [16..128]). Ring uses the paper's tuned chain length l = 6.
func Fig9(c Config) []Figure {
	gphRing := func(v vectors, tau float64) []method {
		return []method{v.method("GPH", tau, hamming.GPHOptions()), v.method("Ring", tau, hamming.RingOptions(6))}
	}
	gist, sift := gistSift(c)
	return append(compare(corpus{"GIST", [2]string{"9a", "9b"}, len(gist.qs), on(gist, gphRing)}, []float64{8, 16, 24, 32, 40, 48, 56, 64}),
		compare(corpus{"SIFT", [2]string{"9c", "9d"}, len(sift.qs), on(sift, gphRing)}, []float64{16, 32, 48, 64, 80, 96, 112, 128})...)
}
