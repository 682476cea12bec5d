package main

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hamming"
	"repro/internal/pairs"
	"repro/internal/server"
	"repro/internal/setsim"
	"repro/internal/strdist"
	"repro/internal/tokenset"
)

// corpus is one generated dataset plus everything the benchmark needs
// to drive and check one backend over it: the engine build the
// workloads time, the bare backend DB the traced run calls directly,
// the linear-scan oracle, and the wire form of an inline query.
type corpus interface {
	size() int
	query(id int) engine.Query
	// build indexes the first n objects through engine.Build* — the
	// constructor setup_s times. tau is the build threshold (hamming
	// joins use a tighter one than searches; the other backends have
	// one τ per spec).
	build(n int, tau float64, shards int) (engine.Index, error)
	// open builds the bare backend DB over the whole corpus, with the
	// engine adapter over it defaulting to tau.
	open(tau float64) (*backend, error)
	// linear is the oracle: ids among the first n objects within tau
	// of q, ascending, by exhaustive exact verification.
	linear(q engine.Query, tau float64, n int) []int64
	// distance is the exact distance the top-k oracle ranks by, in the
	// engine's encoding (1−Jaccard for sets).
	distance(q engine.Query, id int64) float64
	// inline fills req with object id as an inline payload.
	inline(id int, req *server.SearchRequest)
}

// backend is a bare backend DB opened by the traced run, reduced to the
// calls it times. search runs the ring filter at the engine adapter's
// default chain length (hole: the l = 1 pigeonhole baseline) and
// returns the candidate count; rangeProbe is SearchRangeAppend.
type backend struct {
	plain      engine.Index // the engine adapter over the same DB
	search     func(q engine.Query, tau float64, hole, skipVerify bool) (cands int, err error)
	rangeProbe func(q engine.Query, tau float64, lo, hi int, dst []int64) ([]int64, error)
}

// partSpec sizes one problem instance of a workload.
type partSpec struct {
	problem engine.Problem
	dataset string
	n       int
	queries int
	joinN   int
	m       int     // hamming parts / set boxes
	kappa   int     // string gram length
	tau     float64 // build threshold of the search index
	joinTau float64 // build threshold of the join index
	// shards is the search index's shard count (engine.AutoShards
	// allowed); joinShards the join index's.
	shards, joinShards int
	// searchTaus, when set, is the per-op τ cycle (hamming only).
	searchTaus []float64
	// topkCaps, when set, is the per-op cycle of radius caps on the
	// top-k ladder (hamming only; the other backends stop at tau).
	topkCaps []float64
	// oracleQueries and joinOracleN size the pre-timing oracle checks.
	oracleQueries, joinOracleN int
}

// generate runs the spec's dataset generator.
func (ps partSpec) generate(seed int64) (corpus, error) {
	switch ps.dataset {
	case "gist":
		return &hammingCorpus{vecs: dataset.GIST(ps.n, seed), m: ps.m}, nil
	case "sift":
		return &hammingCorpus{vecs: dataset.SIFT(ps.n, seed), m: ps.m}, nil
	case "dblp":
		cfg := setsim.Config{Measure: setsim.Jaccard, Tau: ps.tau, M: ps.m}
		return &setCorpus{sets: dataset.DBLP(ps.n, seed), cfg: cfg}, nil
	case "imdb":
		return &stringCorpus{strs: dataset.IMDB(ps.n, seed), kappa: ps.kappa, tau: int(ps.tau)}, nil
	case "aids":
		return &graphCorpus{gs: dataset.AIDS(ps.n, seed), tau: int(ps.tau)}, nil
	}
	return nil, fmt.Errorf("unknown dataset %q", ps.dataset)
}

// --- hamming -----------------------------------------------------------------

type hammingCorpus struct {
	vecs []bitvec.Vector
	m    int
}

func (c *hammingCorpus) size() int                 { return len(c.vecs) }
func (c *hammingCorpus) query(id int) engine.Query { return engine.VectorQuery(c.vecs[id]) }

func (c *hammingCorpus) build(n int, tau float64, shards int) (engine.Index, error) {
	return engine.BuildHamming(c.vecs[:n], c.m, int(tau), shards, workers)
}

// hammingRingL is the chain length the hamming adapter resolves l = 0 to.
const hammingRingL = 6

func (c *hammingCorpus) open(tau float64) (*backend, error) {
	db, err := hamming.NewDB(c.vecs, c.m)
	if err != nil {
		return nil, err
	}
	plain, err := engine.NewHamming(db, int(tau))
	if err != nil {
		return nil, err
	}
	options := func(hole, skipVerify bool) hamming.Options {
		opt := hamming.RingOptions(hammingRingL)
		if hole {
			opt = hamming.GPHOptions()
		}
		opt.SkipVerify = skipVerify
		return opt
	}
	return &backend{
		plain: plain,
		search: func(q engine.Query, tau float64, hole, skipVerify bool) (int, error) {
			_, st, err := db.Search(q.Vector(), int(tau), options(hole, skipVerify))
			return st.Candidates, err
		},
		rangeProbe: func(q engine.Query, tau float64, lo, hi int, dst []int64) ([]int64, error) {
			var st hamming.Stats
			return db.SearchRangeAppend(q.Vector(), int(tau), options(false, false), lo, hi, dst, &st)
		},
	}, nil
}

func (c *hammingCorpus) linear(q engine.Query, tau float64, n int) []int64 {
	var out []int64
	for id, v := range c.vecs[:n] {
		if bitvec.Hamming(v, q.Vector()) <= int(tau) {
			out = append(out, int64(id))
		}
	}
	return out
}

func (c *hammingCorpus) distance(q engine.Query, id int64) float64 {
	return float64(bitvec.Hamming(c.vecs[id], q.Vector()))
}

func (c *hammingCorpus) inline(id int, req *server.SearchRequest) {
	req.Vector = c.vecs[id].String()
}

// --- set similarity ----------------------------------------------------------

type setCorpus struct {
	sets []tokenset.Set
	cfg  setsim.Config
}

func (c *setCorpus) size() int                 { return len(c.sets) }
func (c *setCorpus) query(id int) engine.Query { return engine.SetQuery(c.sets[id]) }

func (c *setCorpus) build(n int, _ float64, shards int) (engine.Index, error) {
	return engine.BuildSet(c.sets[:n], c.cfg, shards, workers)
}

// setRingL is the chain length the set adapter resolves l = 0 to.
const setRingL = 2

func (c *setCorpus) open(float64) (*backend, error) {
	db, err := setsim.NewPKWiseDB(c.sets, c.cfg)
	if err != nil {
		return nil, err
	}
	plain, err := engine.NewSet(db)
	if err != nil {
		return nil, err
	}
	chain := func(hole bool) int {
		if hole {
			return 1
		}
		return setRingL
	}
	return &backend{
		plain: plain,
		search: func(q engine.Query, _ float64, hole, skipVerify bool) (int, error) {
			if skipVerify {
				st, err := db.CountCandidates(q.Set(), chain(hole))
				return st.Candidates, err
			}
			_, st, err := db.Search(q.Set(), chain(hole))
			return st.Candidates, err
		},
		rangeProbe: func(q engine.Query, _ float64, lo, hi int, dst []int64) ([]int64, error) {
			var st setsim.Stats
			return db.SearchRangeAppend(q.Set(), setRingL, false, lo, hi, dst, &st)
		},
	}, nil
}

func (c *setCorpus) linear(q engine.Query, _ float64, n int) []int64 {
	return pairs.SortedIDs64(setsim.SearchLinear(c.sets[:n], q.Set(), c.cfg))
}

func (c *setCorpus) distance(q engine.Query, id int64) float64 {
	return 1 - tokenset.Jaccard(c.sets[id], q.Set())
}

func (c *setCorpus) inline(id int, req *server.SearchRequest) { req.Set = c.sets[id] }

// --- edit distance -----------------------------------------------------------

type stringCorpus struct {
	strs  []string
	kappa int
	tau   int
}

func (c *stringCorpus) size() int                 { return len(c.strs) }
func (c *stringCorpus) query(id int) engine.Query { return engine.StringQuery(c.strs[id]) }

func (c *stringCorpus) build(n int, _ float64, shards int) (engine.Index, error) {
	return engine.BuildString(c.strs[:n], c.kappa, c.tau, shards, workers)
}

func (c *stringCorpus) open(float64) (*backend, error) {
	dict, err := strdist.BuildGramDict(c.strs, c.kappa)
	if err != nil {
		return nil, err
	}
	db, err := strdist.NewDB(c.strs, dict, c.tau)
	if err != nil {
		return nil, err
	}
	plain, err := engine.NewString(db)
	if err != nil {
		return nil, err
	}
	options := func(hole, skipVerify bool) strdist.Options {
		// The string adapter resolves l = 0 to min(3, τ+1).
		opt := strdist.RingOptions(min(3, c.tau+1))
		if hole {
			opt = strdist.PivotalOptions()
		}
		opt.SkipVerify = skipVerify
		return opt
	}
	return &backend{
		plain: plain,
		search: func(q engine.Query, _ float64, hole, skipVerify bool) (int, error) {
			_, st, err := db.Search(q.Text(), options(hole, skipVerify))
			return st.Cand2 + st.Fallback, err
		},
		rangeProbe: func(q engine.Query, _ float64, lo, hi int, dst []int64) ([]int64, error) {
			var st strdist.Stats
			return db.SearchRangeAppend(q.Text(), options(false, false), lo, hi, dst, &st)
		},
	}, nil
}

func (c *stringCorpus) linear(q engine.Query, _ float64, n int) []int64 {
	var out []int64
	for id, s := range c.strs[:n] {
		if strdist.EditDistanceWithin(s, q.Text(), c.tau) >= 0 {
			out = append(out, int64(id))
		}
	}
	return out
}

func (c *stringCorpus) distance(q engine.Query, id int64) float64 {
	return float64(strdist.EditDistance(c.strs[id], q.Text()))
}

func (c *stringCorpus) inline(id int, req *server.SearchRequest) { req.String = &c.strs[id] }

// --- graph edit distance -----------------------------------------------------

type graphCorpus struct {
	gs  []*graph.Graph
	tau int
}

func (c *graphCorpus) size() int                 { return len(c.gs) }
func (c *graphCorpus) query(id int) engine.Query { return engine.GraphQuery(c.gs[id]) }

func (c *graphCorpus) build(n int, _ float64, shards int) (engine.Index, error) {
	return engine.BuildGraph(c.gs[:n], c.tau, shards, workers)
}

func (c *graphCorpus) open(float64) (*backend, error) {
	db, err := graph.NewDB(c.gs, c.tau)
	if err != nil {
		return nil, err
	}
	plain, err := engine.NewGraph(db)
	if err != nil {
		return nil, err
	}
	options := func(hole, skipVerify bool) graph.Options {
		// The graph adapter resolves l = 0 to max(1, τ−1).
		l := max(1, c.tau-1)
		opt := graph.RingOptions(l)
		if hole || l == 1 {
			opt = graph.ParsOptions()
		}
		opt.SkipVerify = skipVerify
		return opt
	}
	return &backend{
		plain: plain,
		search: func(q engine.Query, _ float64, hole, skipVerify bool) (int, error) {
			_, st, err := db.Search(q.Graph(), options(hole, skipVerify))
			return st.Candidates, err
		},
		rangeProbe: func(q engine.Query, _ float64, lo, hi int, dst []int64) ([]int64, error) {
			var st graph.Stats
			return db.SearchRangeAppend(q.Graph(), options(false, false), lo, hi, dst, &st)
		},
	}, nil
}

func (c *graphCorpus) linear(q engine.Query, _ float64, n int) []int64 {
	var out []int64
	for id, g := range c.gs[:n] {
		if graph.GEDWithin(g, q.Graph(), c.tau) >= 0 {
			out = append(out, int64(id))
		}
	}
	return out
}

func (c *graphCorpus) distance(q engine.Query, id int64) float64 {
	return float64(graph.GEDWithin(c.gs[id], q.Graph(), c.tau))
}

func (c *graphCorpus) inline(id int, req *server.SearchRequest) {
	g := c.gs[id]
	spec := &server.GraphSpec{N: g.N(), VertexLabels: make([]int32, g.N())}
	for v := range spec.VertexLabels {
		spec.VertexLabels[v] = g.VertexLabel(v)
	}
	for _, e := range g.Edges() {
		spec.Edges = append(spec.Edges, [3]int{e.U, e.V, int(e.Label)})
	}
	req.Graph = spec
}
