package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/server"
)

// workers is the engine worker count of every index and server the
// benchmark builds, and clients the closed-loop client count: the
// reference box has two cores, and main pins GOMAXPROCS to match.
const (
	workers = 2
	clients = 2
)

// part is one prepared problem instance of a workload.
type part struct {
	spec    partSpec
	corpus  corpus
	qids    []int          // sampled dataset ids, the query set
	queries []engine.Query // corpus.query(qids[i])
	// index answers the workload's searches in-process. On the HTTP
	// workload it is the benchmark's own copy of what the server
	// loaded, kept for the traced run's engine layer and as the join
	// reference.
	index engine.Index
	join  engine.Index

	// Traced run only: the bare backend DB (whose adapter then is index
	// on an unsharded part), and how long it and index took to build.
	be               *backend
	backendS, buildS float64
}

// env is a prepared workload: parts built, server (if any) loaded.
type env struct {
	spec  spec
	seed  int64
	parts []*part
	node  *node
	cl    *client

	traced      bool
	setupS      float64 // median timed set-up
	setups      int
	indexHeapMB float64

	// occ and cnt place op i inside its part's own sequence: mix
	// position j is the occ[j]-th of cnt[part] occurrences.
	occ []int
	cnt []int

	attempted, failed atomic.Int64
}

// fail counts one failed op and reports it.
func (e *env) fail(format string, args ...any) {
	if e.failed.Add(1) <= 10 {
		logf("%s: failed op: %s", e.spec.name, fmt.Sprintf(format, args...))
	}
}

// heapMB is the live heap after collection. Two cycles: the first
// only moves sync.Pool contents (search scratch of a previous workload
// in the same process) to the victim cache.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// minSetups and maxSetups bound how often prepare repeats the set-up.
const (
	minSetups = 3
	maxSetups = 15
)

// prepare generates the workload's inputs from seed and sets it up,
// timing the set-up (index builds, or server start plus loads)
// repeatedly and keeping the last result. The traced run reports build
// time per layer instead: it sets up once, and through the bare
// backend DBs so that it can call them directly.
func prepare(s spec, seed int64, traced bool, setupBudget time.Duration) (*env, error) {
	if s.http && seed == 0 {
		// POST /v1/load reads seed 0 as "unset" and generates with its
		// default; the benchmark's own copy has to match.
		seed = 42
	}
	e := &env{spec: s, seed: seed, traced: traced}
	e.cnt = make([]int, len(s.parts))
	for _, p := range s.mix {
		e.occ = append(e.occ, e.cnt[p])
		e.cnt[p]++
	}
	for _, ps := range s.parts {
		e.parts = append(e.parts, &part{spec: ps})
	}
	before := heapMB()

	if !s.http {
		for _, p := range e.parts {
			var err error
			if p.corpus, err = p.spec.generate(seed); err != nil {
				return nil, err
			}
		}
	}
	var times []float64
	start := time.Now()
	for len(times) < minSetups || (len(times) < maxSetups && time.Since(start) < setupBudget) {
		if e.node != nil {
			e.node.stop()
			e.cl.close()
		}
		t0 := time.Now()
		if err := e.setup(); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if traced {
			break
		}
	}
	e.setupS, e.setups = median(times), len(times)
	e.indexHeapMB = heapMB() - before

	for _, p := range e.parts {
		ps := p.spec
		if s.http {
			// The benchmark's own copy of what the server generated:
			// same generator, size and seed.
			var err error
			if p.corpus, err = ps.generate(seed); err != nil {
				return nil, err
			}
			if err = p.build(traced); err != nil {
				return nil, err
			}
			p.join = p.index
		} else {
			var err error
			if p.join, err = p.corpus.build(ps.joinN, ps.joinTau, ps.joinShards); err != nil {
				return nil, err
			}
		}
		p.qids = dataset.SampleQueries(ps.n, ps.queries, seed)
		for _, id := range p.qids {
			p.queries = append(p.queries, p.corpus.query(id))
		}
	}
	return e, nil
}

// setup is the unit setup_s times: build every part's search index, or
// on the HTTP workload start the server and POST /v1/load each problem.
func (e *env) setup() error {
	if !e.spec.http {
		for _, p := range e.parts {
			if err := p.build(e.traced); err != nil {
				return fmt.Errorf("building %s index: %w", p.spec.problem, err)
			}
		}
		return nil
	}
	var err error
	if e.node, err = startNode(""); err != nil {
		return err
	}
	e.cl = newClient(e.node.url, clients)
	for _, p := range e.parts {
		ps := p.spec
		req := server.LoadRequest{Problem: string(ps.problem), Dataset: ps.dataset, N: ps.n, Seed: e.seed}
		var resp server.LoadResponse
		if err := e.cl.postJSON("/v1/load", req, &resp); err != nil {
			return err
		}
		if resp.N != ps.n || resp.Tau != ps.tau {
			return fmt.Errorf("server loaded %s n=%d τ=%v, the spec says n=%d τ=%v", ps.problem, resp.N, resp.Tau, ps.n, ps.tau)
		}
	}
	return nil
}

// build builds the part's search index: through engine.Build*, or for
// the traced run by opening the bare backend DB and taking its engine
// adapter — the same construction for an unsharded index, with the DB
// kept for direct calls.
func (p *part) build(traced bool) error {
	ps := p.spec
	var err error
	if traced {
		t0 := time.Now()
		if p.be, err = p.corpus.open(ps.tau); err != nil {
			return err
		}
		p.backendS = time.Since(t0).Seconds()
		if ps.shards == 1 {
			p.index, p.buildS = p.be.plain, p.backendS
			return nil
		}
	}
	t0 := time.Now()
	p.index, err = p.corpus.build(ps.n, ps.tau, ps.shards)
	p.buildS = time.Since(t0).Seconds()
	return err
}

// close stops the workload's server, if it has one.
func (e *env) close() {
	if e.node != nil {
		e.cl.close()
		e.node.stop()
	}
}

// --- ops ---------------------------------------------------------------------

// op is one search or top-k request, a pure function of its index in
// the schedule: the part from the mix, then the part's own sequence
// number picks the query and the τ of the cycle. Over HTTP odd queries
// travel inline and even ones as a queryId.
type op struct {
	part    *part
	q       int
	tau     *float64 // threshold search override
	topkCap *float64 // top-k radius cap
	inline  bool
}

func (e *env) opAt(i int) op {
	j := i % len(e.spec.mix)
	pi := e.spec.mix[j]
	return e.opFor(e.parts[pi], i/len(e.spec.mix)*e.cnt[pi]+e.occ[j])
}

// opFor is the seq-th op of part p's own sequence.
func (e *env) opFor(p *part, seq int) op {
	o := op{part: p, q: seq % len(p.queries)}
	o.inline = e.spec.http && o.q%2 == 1
	if taus := p.spec.searchTaus; len(taus) > 0 {
		o.tau = &taus[seq%len(taus)]
	}
	if caps := p.spec.topkCaps; len(caps) > 0 {
		o.topkCap = &caps[seq%len(caps)]
	}
	return o
}

const (
	kindSearch = iota
	kindTopK
)

// request builds the wire form of o.
func (o op) request(kind int, chain int) server.SearchRequest {
	req := server.SearchRequest{Problem: string(o.part.spec.problem), L: chain}
	if o.inline {
		o.part.corpus.inline(o.part.qids[o.q], &req)
	} else {
		req.QueryID = &o.part.qids[o.q]
	}
	if kind == kindTopK {
		req.K, req.Tau = topK, o.topkCap
	} else {
		req.Tau = o.tau
	}
	return req
}

// search runs one threshold search the way the workload's callers do —
// over HTTP or straight into the engine — and returns the ids.
func (e *env) search(o op, chain int) ([]int64, error) {
	if e.spec.http {
		var resp server.SearchResponse
		err := e.cl.postJSON("/v1/search", o.request(kindSearch, chain), &resp)
		return resp.IDs, err
	}
	ids, _, err := o.part.index.Search(context.Background(), o.part.queries[o.q], engine.Options{Tau: o.tau, ChainLength: chain})
	return ids, err
}

// topk runs one k-nearest search the way the workload's callers do.
func (e *env) topk(o op) ([]engine.Result, error) {
	if e.spec.http {
		var resp server.TopKResponse
		err := e.cl.postJSON("/v1/search", o.request(kindTopK, 0), &resp)
		return resp.Results, err
	}
	res, _, err := o.part.index.(engine.TopKSearcher).SearchTopK(context.Background(), o.part.queries[o.q],
		engine.Options{TopK: topK, Tau: o.topkCap})
	return res, err
}

// joinOnce runs one join op — every join part in turn — and returns the
// rows joined and a hash of all pairs.
func (e *env) joinOnce() (rows int, sum uint64, err error) {
	h := fnv.New64a()
	for _, pi := range e.spec.joinParts {
		p := e.parts[pi]
		if e.spec.http {
			var resp server.JoinResponse
			if err := e.cl.postJSON("/v1/join", server.JoinRequest{Problem: string(p.spec.problem)}, &resp); err != nil {
				return 0, 0, err
			}
			hashPairs(h, resp.Pairs)
		} else {
			pairs, _, err := p.join.(engine.Joiner).Join(context.Background(), engine.JoinOptions{})
			if err != nil {
				return 0, 0, err
			}
			hashPairs(h, wirePairs(pairs))
		}
		rows += p.join.Len()
	}
	return rows, h.Sum64(), nil
}

// --- answer hashes -----------------------------------------------------------

func hashInt(h hash.Hash64, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

func hashIDs(ids []int64) uint64 {
	h := fnv.New64a()
	for _, id := range ids {
		hashInt(h, id)
	}
	return h.Sum64()
}

func hashResults(res []engine.Result) uint64 {
	h := fnv.New64a()
	for _, r := range res {
		hashInt(h, r.ID)
		hashInt(h, int64(math.Float64bits(r.Distance)))
	}
	return h.Sum64()
}

func hashPairs(h hash.Hash64, pairs [][2]int64) {
	for _, pr := range pairs {
		hashInt(h, pr[0])
		hashInt(h, pr[1])
	}
}

// wirePairs converts engine pairs to the [i, j] form the HTTP API and
// the cluster coordinator answer in.
func wirePairs(pairs []engine.Pair) [][2]int64 {
	out := make([][2]int64, len(pairs))
	for i, pr := range pairs {
		out[i] = [2]int64{pr.I, pr.J}
	}
	return out
}
