package engine_test

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hamming"
	"repro/internal/pairs"
	"repro/internal/server"
	"repro/internal/setsim"
	"repro/internal/strdist"
	"repro/internal/tokenset"
)

// TestExactness is the engine's exactness contract as one seeded,
// model-based property. The filters are complete at every chain length
// (§5, Lemma 6), so every configuration of one corpus must answer every
// operation exactly like the linear scan, at every l: a plain index, a
// sharded one fanning out serially and on a pool, the pooled one
// reopened from a snapshot, and a three-replica cluster behind a
// coordinator. The plain index must also report the backend's own work
// counters, and candidates never grow with l.
//
// Each subtest draws a /v1/load request and a random operation
// sequence from its seed alone. A failure names the seed and the step;
// `go test ./internal/engine -run 'TestExactness/seed=N$'` replays it.
func TestExactness(t *testing.T) {
	seeds := make([]int64, 0, 32+len(regressionSeeds))
	for seed := int64(1); seed <= 32; seed++ {
		seeds = append(seeds, seed)
	}
	for _, seed := range append(seeds, regressionSeeds...) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := newExactCase(t, seed)
			// Every operation once, in a random order, then two more.
			n := len(exactOps)
			for i, op := range append(c.rng.Perm(n), c.rng.Intn(n), c.rng.Intn(n)) {
				c.step, c.op = i+1, exactOps[op].name
				exactOps[op].run(c)
			}
		})
	}
}

// regressionSeeds are seeds past the 32-seed sweep that once failed.
// 327 and 491 draw 14- and 15-graph protein corpora whose sharded Limit
// cut falls inside the last delivered shard, where Stats.Limited was
// lost.
var regressionSeeds = []int64{327, 491}

var exactOps = []struct {
	name string
	run  func(*exactCase)
}{
	{"search", (*exactCase).search},
	{"batch", (*exactCase).batch},
	{"topK", (*exactCase).topK},
	{"join", (*exactCase).join},
	{"tiles", (*exactCase).tiles},
	{"window", (*exactCase).window},
}

// config is one way of serving the case's corpus.
type config struct {
	name    string
	ix      engine.Index
	sharded bool // has the sharded layout, whose counters all agree
}

type exactCase struct {
	t        *testing.T
	ctx      context.Context
	seed     int64
	step     int
	op       string
	rng      *rand.Rand
	req      server.LoadRequest
	problem  engine.Problem
	n, m     int // corpus size; box count, the largest useful chain length
	shards   int // shard count of the sharded configurations
	configs  []config
	front    string // the coordinator's HTTP address
	replica  string // one replica daemon's HTTP address
	queries  []engine.Query
	queryIDs []int // the corpus object each query replays, or −1
	model    model
}

func (c *exactCase) fatalf(format string, args ...any) {
	c.t.Helper()
	c.t.Fatalf("seed %d step %d (%s) %s %s n=%d: %s", c.seed, c.step, c.op,
		c.req.Problem, c.req.Dataset, c.n, fmt.Sprintf(format, args...))
}

func (c *exactCase) must(err error) {
	c.t.Helper()
	if err != nil {
		c.fatalf("%v", err)
	}
}

// drawLoad draws the case's corpus and index parameters. Problems
// rotate with the seed so every four seeds cover all of them.
func drawLoad(rng *rand.Rand, seed int64) (req server.LoadRequest, m int) {
	problems := []string{"hamming", "set", "string", "graph"}
	datasets := map[string][2]string{
		"hamming": {"gist", "sift"}, "set": {"dblp", "enron"},
		"string": {"imdb", "pubmed"}, "graph": {"aids", "protein"},
	}
	p := problems[seed%4]
	req = server.LoadRequest{Problem: p, Dataset: datasets[p][rng.Intn(2)], Seed: 1 + rng.Int63n(1000)}
	// Graph corpora stay small: every candidate costs an exact GED.
	maxN := map[string]int{"hamming": 150, "set": 300, "string": 250, "graph": 40}[p]
	if req.Dataset == "protein" {
		maxN = 16 // three vertex labels leave most pairs to exact GED
	}
	tiny := rng.Intn(5) == 0
	if tiny {
		maxN = 4
	}
	req.N = 1 + rng.Intn(maxN)
	tau := func(v float64) *float64 { return &v }
	switch p {
	case "hamming":
		// Parts of 8 to 12 bits: signature enumeration grows
		// exponentially with the part width, and top-k climbs to τ = d.
		d := map[string]int{"gist": 256, "sift": 512}[req.Dataset]
		req.Tau, req.M = tau(float64(rng.Intn(49))), d/(8+rng.Intn(5))
		m = req.M
	case "set":
		req.Tau, req.M = tau(float64(5+rng.Intn(6))/10), 2+rng.Intn(7)
		m = req.M
	case "string":
		req.Tau, req.Kappa = tau(float64(rng.Intn(4))), 1+rng.Intn(3)
		if seed%16 == 2 {
			// IMDB names shorter than κ(τ+1) = 12 characters are too
			// short for the signature scheme: verification reaches
			// them by fallback.
			req.Dataset, req.Tau, req.Kappa = "imdb", tau(3), 3
		}
		m = int(*req.Tau) + 1
	case "graph":
		req.Tau = tau(float64(rng.Intn(4)))
		if tiny {
			// τ + 1 parts over AIDS graphs of 10 to 18 vertices leave
			// some parts empty; exact GED at this τ is affordable only
			// on a handful of graphs.
			req.Dataset, req.Tau = "aids", tau(float64(10+rng.Intn(3)))
		}
		m = int(*req.Tau) + 1
	}
	return req, m
}

func newExactCase(t *testing.T, seed int64) *exactCase {
	rng := rand.New(rand.NewSource(seed))
	req, m := drawLoad(rng, seed)
	c := &exactCase{t: t, ctx: context.Background(), seed: seed, rng: rng, req: req,
		problem: engine.Problem(req.Problem), n: req.N, m: m, op: "build"}
	build := func(r server.LoadRequest, shards, workers int) engine.Index {
		r.Shards = shards
		ix, _, err := server.Build(r, workers)
		c.must(err)
		return ix
	}
	// 0, 1 and AutoShards all resolve to one shard below 50 000 objects.
	plain := build(req, []int{0, 1, engine.AutoShards}[rng.Intn(3)], 0)
	shards := 2 + rng.Intn(7)
	c.shards = min(shards, c.n)
	serial, pooled := build(req, shards, 1), build(req, shards, 0)
	var buf bytes.Buffer
	written, err := engine.WriteSnapshot(pooled, &buf, nil)
	c.must(err)
	if written != int64(buf.Len()) {
		c.fatalf("WriteSnapshot reported %d bytes, wrote %d", written, buf.Len())
	}
	reopened, err := engine.OpenSnapshot(bytes.NewReader(buf.Bytes()), 0, nil)
	c.must(err)
	c.configs = []config{
		{"plain", plain, false}, {"sharded/serial", serial, true},
		{"sharded/pool", pooled, true}, {"reopened", reopened, true},
	}
	for _, cf := range c.configs {
		c.checkIdentity(cf)
	}
	c.startCluster(req, shards)
	c.model = newModel(c, plain)

	for _, id := range []int{0, c.n - 1, rng.Intn(c.n), rng.Intn(c.n)} {
		c.queries, c.queryIDs = append(c.queries, c.model.objs[id]), append(c.queryIDs, id)
	}
	// Objects of a corpus drawn from another seed are not in the index.
	far := req
	far.Seed, far.N = req.Seed+1000, 3
	fix := build(far, 1, 0)
	for id := 0; id < fix.Len(); id++ {
		q, err := engine.Object(fix, id)
		c.must(err)
		c.queries, c.queryIDs = append(c.queries, q), append(c.queryIDs, -1)
	}
	// And a degenerate query: the zero vector, a one-token set, the
	// empty string, one vertex with a label no corpus uses.
	lone := graph.New(1)
	lone.SetVertexLabel(0, 999)
	odd := map[engine.Problem]engine.Query{
		engine.Set: engine.SetQuery(tokenset.Set{0}), engine.String: engine.StringQuery(""),
		engine.Graph: engine.GraphQuery(lone),
	}[c.problem]
	if c.problem == engine.Hamming {
		odd = engine.VectorQuery(bitvec.New(c.queries[0].Vector().Dim()))
	}
	c.queries, c.queryIDs = append(c.queries, odd), append(c.queryIDs, -1)
	return c
}

// checkIdentity checks what a configuration reports about itself and
// its query-by-id replay.
func (c *exactCase) checkIdentity(cf config) {
	ix, shards, want := cf.ix, 1, 1
	if sh, ok := ix.(*engine.Sharded); ok {
		shards = sh.Shards()
	}
	if cf.sharded {
		want = c.shards
	}
	if ix.Problem() != c.problem || ix.Len() != c.n || ix.Tau() != *c.req.Tau || shards != want {
		c.fatalf("%s: %v/%d/τ=%v with %d shards, want %v/%d/τ=%v with %d",
			cf.name, ix.Problem(), ix.Len(), ix.Tau(), shards, c.problem, c.n, *c.req.Tau, want)
	}
	for _, id := range []int{-1, c.n} {
		if _, err := engine.Object(ix, id); err == nil {
			c.fatalf("%s: Object(%d) accepted", cf.name, id)
		}
	}
	if q, err := engine.Object(ix, c.n/2); err != nil || q.Kind() != c.problem {
		c.fatalf("%s: Object(%d) = %v kind %v", cf.name, c.n/2, err, q.Kind())
	}
}

// startCluster boots three daemons holding the sharded corpus and a
// coordinator over them, each behind its HTTP handler.
func (c *exactCase) startCluster(req server.LoadRequest, shards int) {
	req.Shards = shards
	var urls []string
	for i := 0; i < 3; i++ {
		ts := httptest.NewServer(server.New(0, 0).Handler())
		c.t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
		if code := c.post(ts.URL+"/v1/load", req, nil); code != http.StatusOK {
			c.fatalf("replica load: status %d", code)
		}
	}
	coord, err := cluster.New(cluster.Config{Replicas: urls, Timeout: time.Minute, RetryBaseDelay: time.Millisecond})
	c.must(err)
	c.must(coord.Attach(c.ctx))
	front := httptest.NewServer(coord.Handler())
	c.t.Cleanup(front.Close)
	c.front, c.replica = front.URL, urls[0]
}

func (c *exactCase) post(url string, in, out any) int {
	c.t.Helper()
	body, err := json.Marshal(in)
	c.must(err)
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	c.must(err)
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		c.must(json.NewDecoder(resp.Body).Decode(out))
	}
	return resp.StatusCode
}

// query draws a query; id ≥ 0 names the corpus object it replays.
func (c *exactCase) query() (engine.Query, int) {
	i := c.rng.Intn(len(c.queries))
	return c.queries[i], c.queryIDs[i]
}

// request addresses q to a daemon: by id when it replays corpus object
// id, inline otherwise.
func (c *exactCase) request(q engine.Query, id int) server.SearchRequest {
	req := server.SearchRequest{Problem: c.req.Problem}
	switch {
	case id >= 0:
		req.QueryID = &id
	case c.problem == engine.Hamming:
		req.Vector = q.Vector().String()
	case c.problem == engine.Set:
		req.Set = q.Set()
	case c.problem == engine.String:
		s := q.Text()
		req.String = &s
	case c.problem == engine.Graph:
		g := q.Graph()
		req.Graph = &server.GraphSpec{N: g.N()}
		for v := 0; v < g.N(); v++ {
			req.Graph.VertexLabels = append(req.Graph.VertexLabels, g.VertexLabel(v))
		}
		for _, e := range g.Edges() {
			req.Graph.Edges = append(req.Graph.Edges, [3]int{e.U, e.V, int(e.Label)})
		}
	}
	return req
}

// ls are the chain lengths every search runs at: the paper's default,
// the pigeonhole baseline, the shortest ring, the full ring and one
// past it.
func (c *exactCase) ls() []int { return []int{0, 1, 2, c.m, c.m + 1} }

func (c *exactCase) l() int { return c.ls()[c.rng.Intn(5)] }

// tau draws a threshold override or top-k cap: only hamming indexes
// take one, the other problems answer at their built τ.
func (c *exactCase) tau() *float64 {
	if c.problem != engine.Hamming || c.rng.Intn(2) == 0 {
		return nil
	}
	return engine.Tau(float64(c.rng.Intn(49)))
}

// work is the machine-independent part of a Stats.
type work [4]int

func workOf(st engine.Stats) work { return work{st.Candidates, st.Results, st.Probes, st.BoxChecks} }

func (w work) plus(o work) work { return work{w[0] + o[0], w[1] + o[1], w[2] + o[2], w[3] + o[3]} }

// search runs one query at every chain length through Search with and
// without SkipVerify or a Limit.
func (c *exactCase) search() {
	q, id := c.query()
	tau := c.tau()
	want := c.model.linear(q, tau)
	if id >= 0 && !slices.Contains(want, int64(id)) {
		c.fatalf("linear scan of object %d misses the object itself", id)
	}
	cands := make([]map[int]int, len(c.configs)) // [config][l ≥ 1] → candidates
	for _, l := range c.ls() {
		opt := engine.Options{ChainLength: l, Tau: tau}
		skip, limit := opt, opt
		skip.SkipVerify = true
		limit.Limit = 1 + c.rng.Intn(len(want)+2)
		prefix, cut := want[:min(limit.Limit, len(want))], limit.Limit < len(want)
		_, backend := c.model.window(q, l, false, tau, 0, c.n, nil)
		_, backendSkip := c.model.window(q, l, true, tau, 0, c.n, nil)
		var sharded []work
		for ci, cf := range c.configs {
			what := fmt.Sprintf("%s l=%d", cf.name, l)
			ids, st, err := cf.ix.Search(c.ctx, q, opt)
			c.must(err)
			c.sameIDs(what, ids, want)
			c.checkStats(cf, st, len(want))
			ids, lst, err := cf.ix.Search(c.ctx, q, limit)
			c.must(err)
			c.sameIDs(fmt.Sprintf("%s limit %d", what, limit.Limit), ids, prefix)
			// A sharded search that reaches the limit may stop before
			// learning whether more results exist, so only a cut must
			// say so.
			if cut && (!lst.Limited || lst.Results != limit.Limit) {
				c.fatalf("%s limit %d: Limited %v Results %d, want a cut", what, limit.Limit, lst.Limited, lst.Results)
			}
			ids, skipSt, err := cf.ix.Search(c.ctx, q, skip)
			c.must(err)
			// By completeness the candidates include every result.
			if len(ids) != 0 || skipSt.Candidates < len(want) {
				c.fatalf("%s SkipVerify: %d ids and %d candidates for %d results", what, len(ids), skipSt.Candidates, len(want))
			}
			if cf.sharded {
				got := []work{workOf(st), workOf(skipSt)}
				if sharded != nil && !slices.Equal(got, sharded) {
					c.fatalf("%s: counters %v, other sharded layouts %v", what, got, sharded)
				}
				sharded = got
			} else if workOf(st) != backend || workOf(skipSt) != backendSkip {
				c.fatalf("%s: counters %v, SkipVerify %v; the backend's %v and %v",
					what, workOf(st), workOf(skipSt), backend, backendSkip)
			}
			if cands[ci] == nil {
				cands[ci] = map[int]int{}
			}
			if l > 0 {
				cands[ci][l] = st.Candidates
			}
		}
		perShard := 0 // a one-shard replica reports none
		if c.shards > 1 {
			perShard = c.shards
		}
		for _, lim := range []int{0, limit.Limit} {
			var resp server.SearchResponse
			req := c.request(q, id)
			req.L, req.Tau, req.Limit = l, tau, lim
			code := c.post(c.front+"/v1/search", req, &resp)
			ids, st := resp.IDs, resp.Stats
			if code != http.StatusOK || lim == 0 && (!slices.Equal(ids, want) || st.Results != len(ids) || len(st.PerShard) != perShard) ||
				lim > 0 && (!slices.Equal(ids, prefix) || cut && !st.Limited) {
				c.fatalf("cluster l=%d limit %d: status %d ids %v (Results %d, Limited %v, %d per-shard entries), want %v",
					l, lim, code, ids, st.Results, st.Limited, len(st.PerShard), want)
			}
		}
	}
	// A longer chain is a stronger filter: candidates never grow with l.
	// The string baseline at l = 1 is Pivotal, a different filter.
	lo := map[bool]int{false: 1, true: 2}[c.problem == engine.String]
	for ci, byL := range cands {
		for l1, n1 := range byL {
			for l2, n2 := range byL {
				if lo <= l1 && l1 < l2 && n2 > n1 {
					c.fatalf("%s: %d candidates at l=%d, %d at l=%d", c.configs[ci].name, n2, l2, n1, l1)
				}
			}
		}
	}
}

// checkStats checks the counters of an unlimited, verified search
// answering want ids.
func (c *exactCase) checkStats(cf config, st engine.Stats, want int) {
	c.t.Helper()
	if st.Results != want || st.Candidates < want || st.Limited {
		c.fatalf("%s: Results %d Candidates %d Limited %v for %d results", cf.name, st.Results, st.Candidates, st.Limited, want)
	}
	if !cf.sharded || c.shards == 1 {
		return
	}
	var sum work
	for _, ps := range st.PerShard {
		sum = sum.plus(workOf(ps))
	}
	if len(st.PerShard) != c.shards || sum != workOf(st) {
		c.fatalf("%s: %d per-shard entries summing to %v, want %d summing to %v", cf.name, len(st.PerShard), sum, c.shards, workOf(st))
	}
}

func (c *exactCase) batch() {
	qs := make([]engine.Query, 1+c.rng.Intn(5))
	for i := range qs {
		qs[i], _ = c.query()
	}
	l, k, workers, ceil := c.l(), 1+c.rng.Intn(4), 1+c.rng.Intn(3), c.tau()
	for _, cf := range c.configs {
		batch := engine.SearchBatch(c.ctx, cf.ix, qs, engine.Options{ChainLength: l}, workers)
		topk := engine.SearchBatch(c.ctx, cf.ix, qs, engine.Options{ChainLength: l, TopK: k, Tau: ceil}, workers)
		if len(batch) != len(qs) || len(topk) != len(qs) {
			c.fatalf("%s: %d and %d batch results for %d queries", cf.name, len(batch), len(topk), len(qs))
		}
		for i := range qs {
			c.must(batch[i].Err)
			c.must(topk[i].Err)
			c.sameIDs(fmt.Sprintf("%s batch query %d", cf.name, i), batch[i].IDs, c.model.linear(qs[i], nil))
			if want := c.model.topK(qs[i], k, ceil); topk[i].IDs != nil || !slices.Equal(topk[i].TopK, want) {
				c.fatalf("%s top-%d batch query %d: ids %v results %v, want %v", cf.name, k, i, topk[i].IDs, topk[i].TopK, want)
			}
		}
	}
}

// topK checks SearchTopK against the brute-force oracle; a hamming τ
// cap keeps results within that radius.
func (c *exactCase) topK() {
	q, id := c.query()
	tau := c.tau()
	for _, k := range []int{1, 3, c.n + 2} {
		l := c.l()
		want := c.model.topK(q, k, tau)
		for _, cf := range c.configs {
			got, st, err := cf.ix.SearchTopK(c.ctx, q, engine.Options{TopK: k, ChainLength: l, Tau: tau})
			c.must(err)
			if !slices.Equal(got, want) {
				c.fatalf("%s top-%d l=%d:\n got %v\nwant %v", cf.name, k, l, got, want)
			}
			rungs, perShard := 1, 0
			if cf.sharded && c.shards > 1 {
				rungs, perShard = c.shards, c.shards
			}
			if st.Results != len(got) || st.Rungs < rungs || len(st.PerShard) != perShard {
				c.fatalf("%s top-%d: Results %d, Rungs %d, %d per-shard entries for %d results", cf.name, k, st.Results, st.Rungs, len(st.PerShard), len(got))
			}
			// A plain index climbs the backend's own ladder.
			if w, n := c.model.ladder(q, l, k, tau); !cf.sharded && (workOf(st) != w || st.Rungs != n) {
				c.fatalf("%s top-%d l=%d: counters %v over %d rungs, the backend's %v over %d", cf.name, k, l, workOf(st), st.Rungs, w, n)
			}
		}
		var resp server.TopKResponse
		req := c.request(q, id)
		req.K, req.L, req.Tau = k, l, tau
		code := c.post(c.front+"/v1/search", req, &resp)
		if code != http.StatusOK || resp.Problem != c.req.Problem || !slices.Equal(resp.Results, want) ||
			resp.Stats.Results != len(want) || resp.Stats.Rungs < 1 {
			c.fatalf("cluster top-%d: status %d results %v (Results %d, Rungs %d), want %v",
				k, code, resp.Results, resp.Stats.Results, resp.Stats.Rungs, want)
		}
	}
}

// tileSize draws a join tile edge: auto, one row (on small corpora:
// it makes n(n+1)/2 tiles), a prime, random, the whole corpus or
// beyond it.
func (c *exactCase) tileSize() int {
	sizes := []int{0, 7, 1 + c.rng.Intn(c.n), c.n, c.n + 5}
	if c.n <= 24 {
		sizes = append(sizes, 1)
	}
	return sizes[c.rng.Intn(len(sizes))]
}

// join runs Join, a Limit prefix and a skip-verify join on every
// configuration, then a join scattered by the coordinator and one run
// by a replica daemon.
func (c *exactCase) join() {
	want := c.model.join()
	l, ts, k := c.l(), c.tileSize(), c.rng.Intn(len(want)+2)
	prefix, cut := want[:min(k, len(want))], k < len(want)
	opt := engine.JoinOptions{ChainLength: l, TileSize: ts}
	for _, cf := range c.configs {
		what := fmt.Sprintf("%s l=%d tileSize=%d", cf.name, l, ts)
		got, st, err := cf.ix.Join(c.ctx, opt)
		c.must(err)
		c.samePairs(what, got, want)
		if st.Pairs != len(want) || st.Results != len(want) || st.JoinTiles < 1 || st.Limited {
			c.fatalf("%s: Pairs %d Results %d JoinTiles %d Limited %v for %d pairs", what, st.Pairs, st.Results, st.JoinTiles, st.Limited, len(want))
		}
		// A plain index tiles exactly as EnumerateTiles lists.
		if tiles := len(engine.EnumerateTiles(c.n, ts, 1)); !cf.sharded && ts > 0 && st.JoinTiles != tiles {
			c.fatalf("%s: %d tiles, EnumerateTiles lists %d", what, st.JoinTiles, tiles)
		}
		if k > 0 {
			lim := opt
			lim.Limit = k
			got, st, err := cf.ix.Join(c.ctx, lim)
			c.must(err)
			c.samePairs(fmt.Sprintf("%s limit %d", what, k), got, prefix)
			if st.Limited != cut || st.Pairs != len(got) {
				c.fatalf("%s limit %d: Limited %v Pairs %d, want %v", what, k, st.Limited, st.Pairs, cut)
			}
		}
		skip := opt
		skip.SkipVerify = true
		got, st, err = cf.ix.Join(c.ctx, skip)
		c.must(err)
		if len(got) != 0 || st.Candidates < len(want) {
			c.fatalf("%s SkipVerify: %d pairs, %d candidates for %d pairs", what, len(got), st.Candidates, len(want))
		}
	}
	wire := make([][2]int64, len(want))
	for i, p := range want {
		wire[i] = [2]int64{p.I, p.J}
	}
	// The coordinator scatters tiles, one HTTP round trip each, so
	// finer tilings run in process only; a replica joins on its own.
	scatterTS := ts
	if len(engine.EnumerateTiles(c.n, ts, 4)) > 64 {
		scatterTS = 0
	}
	for _, to := range []struct {
		url string
		ts  int
	}{{c.front, scatterTS}, {c.replica, ts}} {
		for _, lim := range []int{0, k} {
			var resp server.JoinResponse
			code := c.post(to.url+"/v1/join", server.JoinRequest{Problem: c.req.Problem, L: l, TileSize: to.ts, Limit: lim}, &resp)
			got, st, w := resp.Pairs, resp.Stats, wire
			if lim > 0 {
				w = wire[:len(prefix)]
			}
			if code != http.StatusOK || !slices.Equal(got, w) || st.Pairs != len(got) || st.JoinTiles < 1 || lim > 0 && cut && !st.Limited {
				c.fatalf("%s join tileSize=%d limit %d: status %d, %d pairs (Pairs %d, JoinTiles %d, Limited %v), want %d",
					to.url, to.ts, lim, code, len(got), st.Pairs, st.JoinTiles, st.Limited, len(w))
			}
		}
	}
}

// tiles runs the scatter contract in process: the union of
// JoinTileRange over EnumerateTiles is the join, whatever the tiling,
// also where tiles straddle a sharded index's shard bounds.
func (c *exactCase) tiles() {
	want := c.model.join()
	ts, workers := c.tileSize(), 1+c.rng.Intn(4)
	tiles := engine.EnumerateTiles(c.n, ts, workers)
	opt := engine.JoinOptions{ChainLength: c.l()}
	for _, cf := range c.configs {
		var union []engine.Pair
		for _, tl := range tiles {
			ps, st, err := engine.JoinTileRange(c.ctx, cf.ix, tl, opt)
			c.must(err)
			if st.Pairs != len(ps) || st.Results != len(ps) || st.JoinTiles != 1 {
				c.fatalf("%s tile %+v: Pairs %d Results %d JoinTiles %d for %d pairs", cf.name, tl, st.Pairs, st.Results, st.JoinTiles, len(ps))
			}
			union = append(union, ps...)
		}
		pairs.Sort(union)
		c.samePairs(fmt.Sprintf("%s union of %d tiles (tileSize=%d)", cf.name, len(tiles), ts), union, want)
	}
}

// window runs the backend's own range probe over a random partition of
// [0, n), appending to a non-empty dst, with counters that sum to the
// full range's; over a window clamped from beyond both ends; and over
// an inverted one. A one-row tile then probes one window through the
// plain index, which must report the backend's ids and counters.
func (c *exactCase) window() {
	q, _ := c.query()
	want, l := c.model.linear(q, nil), c.l()
	cuts := []int{0, c.n}
	for i := c.rng.Intn(6); i > 0; i-- {
		cuts = append(cuts, c.rng.Intn(c.n+1))
	}
	slices.Sort(cuts)
	got, sum := []int64{-7}, work{}
	for i := 0; i+1 < len(cuts); i++ {
		var w work
		got, w = c.model.window(q, l, false, nil, cuts[i], cuts[i+1], got)
		sum = sum.plus(w)
	}
	clamped, full := c.model.window(q, l, false, nil, -3, c.n+3, nil)
	inverted, _ := c.model.window(q, l, false, nil, c.n, c.n/2, nil)
	if got[0] != -7 || !slices.Equal(got[1:], want) || sum != full || !slices.Equal(clamped, want) || len(inverted) != 0 {
		c.fatalf("l=%d windows %v: %v with counters %v; [-3, n+3): %v with %v; inverted: %v; want %v",
			l, cuts, got, sum, clamped, full, inverted, want)
	}

	if c.n < 2 {
		return
	}
	// Row r probes the columns [lo, hi) below it.
	r := 1 + c.rng.Intn(c.n-1)
	lo := c.rng.Intn(r)
	hi := lo + 1 + c.rng.Intn(r-lo)
	ids, w := c.model.window(c.model.objs[r], l, false, nil, lo, hi, nil)
	tile := engine.TileSpec{RowLo: r, RowHi: r + 1, ColLo: lo, ColHi: hi}
	ps, st, err := engine.JoinTileRange(c.ctx, c.configs[0].ix, tile, engine.JoinOptions{ChainLength: l})
	c.must(err)
	wantPairs := make([]engine.Pair, len(ids))
	for i, id := range ids {
		wantPairs[i] = engine.Pair{I: id, J: int64(r)}
	}
	c.samePairs(fmt.Sprintf("plain l=%d tile %+v", l, tile), ps, wantPairs)
	if workOf(st) != w {
		c.fatalf("plain l=%d tile %+v: counters %v, the backend's %v", l, tile, workOf(st), w)
	}
}

func (c *exactCase) sameIDs(what string, got, want []int64) {
	c.t.Helper()
	if !slices.Equal(got, want) {
		c.fatalf("%s: ids %v, want %v", what, got, want)
	}
}

func (c *exactCase) samePairs(what string, got, want []engine.Pair) {
	c.t.Helper()
	if !slices.Equal(got, want) {
		c.fatalf("%s: %d pairs %v, want %d pairs %v", what, len(got), got, len(want), want)
	}
}

// model is one problem's reference: the backend built directly over
// the replayed corpus, its linear scans, its own range probe and top-k
// rungs at the chain length the engine resolves, and brute-force top-k.
type model struct {
	objs []engine.Query
	def  int // the paper's §8 chain length, which the engine picks for l = 0
	// linear is the backend's linear scan at the built τ or tau, join
	// its quadratic JoinLinear.
	linear func(q engine.Query, tau *float64) []int64
	join   func() []engine.Pair
	// dist is q's distance to object i in the engine's top-k order,
	// and whether i lies within the top-k ceiling: the built τ, or on
	// hamming tau when set and the dimension otherwise.
	dist func(i int, q engine.Query, tau *float64) (float64, bool)
	// window is the backend's SearchRangeAppend; rung is one top-k
	// ladder rung at bound: its verified hit count and work.
	window func(q engine.Query, l int, skip bool, tau *float64, lo, hi int, dst []int64) ([]int64, work)
	rung   func(q engine.Query, l int, bound float64) (int, work)
	// bounds is the top-k ladder: doubling rungs up to the ceiling on
	// hamming, the built τ alone elsewhere.
	bounds func(tau *float64) []float64
}

// topK is the brute-force oracle: every object within the ceiling,
// ordered by (Distance, ID), cut to k.
func (md model) topK(q engine.Query, k int, tau *float64) []engine.Result {
	var all []engine.Result
	for i := range md.objs {
		if d, ok := md.dist(i, q, tau); ok {
			all = append(all, engine.Result{ID: int64(i), Distance: d})
		}
	}
	slices.SortFunc(all, func(a, b engine.Result) int {
		return cmp.Or(cmp.Compare(a.Distance, b.Distance), cmp.Compare(a.ID, b.ID))
	})
	return all[:min(k, len(all))]
}

// ladder climbs the rungs until one verifies k hits or the last is
// done, returning the work summed over the rungs, with Results the k
// nearest returned, and the rung count.
func (md model) ladder(q engine.Query, l, k int, tau *float64) (work, int) {
	var sum work
	bounds := md.bounds(tau)
	for i, b := range bounds {
		hits, w := md.rung(q, l, b)
		sum = sum.plus(work{w[0], 0, w[2], w[3]})
		if hits >= k || i == len(bounds)-1 {
			sum[1] = min(k, hits)
			return sum, i + 1
		}
	}
	panic("empty ladder")
}

func newModel(c *exactCase, ix engine.Index) model {
	md := model{objs: make([]engine.Query, c.n)}
	for i := range md.objs {
		var err error
		md.objs[i], err = engine.Object(ix, i)
		c.must(err)
	}
	tau := int(*c.req.Tau)
	md.bounds = func(*float64) []float64 { return []float64{*c.req.Tau} }
	// chain resolves l as the engine does; l = 1 selects each
	// problem's pigeonhole baseline.
	chain := func(l int) int {
		if l > 0 {
			return l
		}
		return md.def
	}
	switch c.problem {
	case engine.Hamming:
		vecs := make([]bitvec.Vector, c.n)
		for i, o := range md.objs {
			vecs[i] = o.Vector()
		}
		db, err := hamming.NewDB(vecs, c.req.M)
		c.must(err)
		md.def = 6
		at := func(t *float64) int {
			if t != nil {
				return int(*t)
			}
			return tau
		}
		opts := func(l int, skip bool) hamming.Options {
			o := hamming.RingOptions(chain(l))
			o.SkipVerify = skip
			return o
		}
		hw := func(st hamming.Stats) work { return work{st.Candidates, st.Results, st.Probes, st.BoxChecks} }
		md.linear = func(q engine.Query, t *float64) []int64 { return pairs.SortedIDs64(db.SearchLinear(q.Vector(), at(t))) }
		md.join = func() []engine.Pair { return enginePairs(db.JoinLinear(tau)) }
		md.dist = func(i int, q engine.Query, t *float64) (float64, bool) {
			d := bitvec.Hamming(vecs[i], q.Vector())
			return float64(d), t == nil || d <= int(*t)
		}
		md.window = func(q engine.Query, l int, skip bool, t *float64, lo, hi int, dst []int64) ([]int64, work) {
			var st hamming.Stats
			dst, err := db.SearchRangeAppend(q.Vector(), at(t), opts(l, skip), lo, hi, dst, &st)
			c.must(err)
			return dst, hw(st)
		}
		md.rung = func(q engine.Query, l int, bound float64) (int, work) {
			ids, _, st, err := db.SearchDist(q.Vector(), int(bound), opts(l, false))
			c.must(err)
			return len(ids), hw(st)
		}
		md.bounds = func(t *float64) []float64 {
			ceil, bs := db.Dim(), []float64{}
			if t != nil {
				ceil = int(*t)
			}
			for b := 1; b < ceil; b *= 2 {
				bs = append(bs, float64(b))
			}
			return append(bs, float64(ceil))
		}
	case engine.Set:
		sets := make([]tokenset.Set, c.n)
		for i, o := range md.objs {
			sets[i] = o.Set()
		}
		cfg := setsim.Config{Measure: setsim.Jaccard, Tau: *c.req.Tau, M: c.req.M}
		db, err := setsim.NewPKWiseDB(sets, cfg)
		c.must(err)
		md.def = 2
		sw := func(st setsim.Stats) work { return work{st.Candidates, st.Results, st.Probes, st.BoxChecks} }
		md.linear = func(q engine.Query, _ *float64) []int64 {
			return pairs.SortedIDs64(setsim.SearchLinear(sets, q.Set(), cfg))
		}
		md.join = func() []engine.Pair { return enginePairs(db.JoinLinear()) }
		md.dist = func(i int, q engine.Query, _ *float64) (float64, bool) {
			x, y := sets[i], q.Set()
			o := tokenset.Overlap(x, y)
			return 1 - float64(o)/float64(len(x)+len(y)-o), o >= tokenset.RequiredOverlap(len(x), len(y), cfg.Tau)
		}
		md.window = func(q engine.Query, l int, skip bool, _ *float64, lo, hi int, dst []int64) ([]int64, work) {
			var st setsim.Stats
			dst, err := db.SearchRangeAppend(q.Set(), chain(l), skip, lo, hi, dst, &st)
			c.must(err)
			return dst, sw(st)
		}
		md.rung = func(q engine.Query, l int, _ float64) (int, work) {
			ids, _, st, err := db.SearchSim(q.Set(), chain(l))
			c.must(err)
			return len(ids), sw(st)
		}
	case engine.String:
		strs := make([]string, c.n)
		for i, o := range md.objs {
			strs[i] = o.Text()
		}
		dict, err := strdist.BuildGramDict(strs, c.req.Kappa)
		c.must(err)
		db, err := strdist.NewDB(strs, dict, tau)
		c.must(err)
		md.def = min(3, tau+1)
		opts := func(l int, skip bool) strdist.Options {
			o := strdist.RingOptions(chain(l))
			if chain(l) == 1 {
				o = strdist.PivotalOptions()
			}
			o.SkipVerify = skip
			return o
		}
		tw := func(st strdist.Stats) work { return work{st.Cand2 + st.Fallback, st.Results, st.Probes, st.BoxChecks} }
		md.linear = func(q engine.Query, _ *float64) []int64 { return pairs.SortedIDs64(db.SearchLinear(q.Text())) }
		md.join = func() []engine.Pair { return enginePairs(db.JoinLinear()) }
		md.dist = func(i int, q engine.Query, _ *float64) (float64, bool) {
			d := strdist.EditDistanceWithin(strs[i], q.Text(), tau)
			return float64(d), d >= 0
		}
		md.window = func(q engine.Query, l int, skip bool, _ *float64, lo, hi int, dst []int64) ([]int64, work) {
			var st strdist.Stats
			dst, err := db.SearchRangeAppend(q.Text(), opts(l, skip), lo, hi, dst, &st)
			c.must(err)
			return dst, tw(st)
		}
		md.rung = func(q engine.Query, l int, _ float64) (int, work) {
			ids, _, st, err := db.SearchDist(q.Text(), opts(l, false))
			c.must(err)
			return len(ids), tw(st)
		}
	case engine.Graph:
		graphs := make([]*graph.Graph, c.n)
		for i, o := range md.objs {
			graphs[i] = o.Graph()
		}
		db, err := graph.NewDB(graphs, tau)
		c.must(err)
		md.def = max(1, tau-1)
		opts := func(l int, skip bool) graph.Options {
			return graph.Options{ChainLength: chain(l), SkipVerify: skip}
		}
		// A graph search scans its window and reads no postings.
		gw := func(st graph.Stats) work { return work{st.Candidates, st.Results, 0, st.BoxChecks} }
		md.linear = func(q engine.Query, _ *float64) []int64 { return pairs.SortedIDs64(db.SearchLinear(q.Graph())) }
		md.join = func() []engine.Pair { return enginePairs(db.JoinLinear()) }
		md.dist = func(i int, q engine.Query, _ *float64) (float64, bool) {
			d := graph.GEDWithin(graphs[i], q.Graph(), tau)
			return float64(d), d >= 0
		}
		md.window = func(q engine.Query, l int, skip bool, _ *float64, lo, hi int, dst []int64) ([]int64, work) {
			var st graph.Stats
			dst, err := db.SearchRangeAppend(q.Graph(), opts(l, skip), lo, hi, dst, &st)
			c.must(err)
			return dst, gw(st)
		}
		md.rung = func(q engine.Query, l int, _ float64) (int, work) {
			ids, _, st, err := db.SearchDist(q.Graph(), opts(l, false))
			c.must(err)
			return len(ids), gw(st)
		}
	}
	return md
}

// enginePairs widens a backend pair list into the engine id space.
func enginePairs[P ~struct{ I, J int }](ps []P) []engine.Pair {
	out := make([]engine.Pair, len(ps))
	for i, p := range ps {
		q := (struct{ I, J int })(p)
		out[i] = engine.Pair{I: int64(q.I), J: int64(q.J)}
	}
	return out
}
