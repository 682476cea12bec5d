package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitvec"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/server"
)

// perLayer are the metrics of a traced run, defined on every workload.
// The prefix is the module the figure belongs to; "backend" is the
// workload's problem package (hamming, setsim, strdist or graph — on
// the HTTP workload the 5:5:5:1 mix of all four). README.md says which
// end-to-end metric each should move.
var perLayer = []metricDef{
	{name: "bitvec.distance256_ns", unit: "ns"},
	{name: "bitvec.distance512_ns", unit: "ns"},

	{name: "backend.build_s", unit: "s"},
	{name: "backend.search_p50_us", unit: "us"},
	{name: "backend.filter_p50_us", unit: "us"},
	{name: "backend.verify_ns_per_cand", unit: "ns"},
	{name: "backend.cands_per_op", unit: "count"},
	{name: "backend.probes_per_op", unit: "count"},
	{name: "backend.boxchecks_per_op", unit: "count"},
	{name: "backend.results_per_op", unit: "count", higher: true},
	{name: "backend.useful_cand_frac", unit: "ratio", higher: true},
	{name: "backend.hole_p50_us", unit: "us"},
	{name: "backend.hole_cands_per_op", unit: "count"},
	{name: "backend.ring_vs_hole_time", unit: "ratio"},
	{name: "backend.range_probe_p50_us", unit: "us"},

	{name: "engine.search_p50_us", unit: "us"},
	{name: "engine.adapter_overhead_us", unit: "us"},
	{name: "engine.allocs_per_search", unit: "count"},
	{name: "engine.bytes_per_search", unit: "B"},
	{name: "engine.topk_rungs_per_op", unit: "count"},
	{name: "engine.topk_cands_per_op", unit: "count"},
	{name: "engine.topk_uncapped_max_ms", unit: "ms"},
	{name: "engine.join_cands_per_row", unit: "count"},
	{name: "engine.join_pairs", unit: "count", higher: true},
	{name: "engine.join_tiles", unit: "count"},
	{name: "engine.shards", unit: "count"},
	{name: "engine.sharded_vs_plain_time", unit: "ratio"},
	{name: "engine.batch_ops_per_s", unit: "1/s", higher: true},

	{name: "parallel.batch_speedup_2w", unit: "ratio", higher: true},
	{name: "parallel.join_speedup_2w", unit: "ratio", higher: true},

	{name: "snapshot.write_ms", unit: "ms"},
	{name: "snapshot.open_ms", unit: "ms"},
	{name: "snapshot.bytes_per_object", unit: "B"},
	{name: "snapshot.open_vs_build", unit: "ratio"},

	{name: "server.load_s", unit: "s"},
	{name: "server.handler_p50_us", unit: "us"},
	{name: "server.transport_p50_us", unit: "us"},
	{name: "server.codec_overhead_us", unit: "us"},
	{name: "server.inline_decode_us", unit: "us"},
	{name: "server.req_bytes_per_op", unit: "B"},
	{name: "server.resp_bytes_per_op", unit: "B"},
	{name: "server.non2xx_total", unit: "count"},
	{name: "server.openloop_rate_per_s", unit: "1/s", higher: true},
	{name: "server.openloop_p50_us", unit: "us"},
	{name: "server.openloop_p99_us", unit: "us"},
	{name: "loadgen.lateness_p99_us", unit: "us"},

	{name: "telemetry.scrape_ms", unit: "ms"},

	{name: "cluster.search_p50_us", unit: "us"},
	{name: "cluster.scatter_overhead_us", unit: "us"},
	{name: "cluster.join_s", unit: "s"},
	{name: "cluster.retries_total", unit: "count"},

	{name: "trace.overhead_frac", unit: "ratio"},
}

// The traced run reports exact counts, so unlike the untraced run its
// op counts are fixed (these and scale.passOps), not sized by the clock.
const (
	allocOps     = 200 // single-goroutine searches behind allocs/bytes per search
	uncappedOps  = 16  // top-k searches with no τ cap
	replicas     = 3
	openLoopConn = 64 // connections and senders of the open loop
)

// layers are the boundaries a traced op crosses, outermost first. Spans
// are recorded from outside the program: an op calls into each boundary
// in turn (see chain), and a layer's self time is its span minus the
// next-inner one.
var layers = [...]string{"transport", "server", "engine", "backend", "filter"}

const (
	layerTransport = iota
	layerServer
	layerEngine
	layerBackend
	layerFilter
)

// span is one record of the trace file.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced pass began
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"` // the enclosing layer's span of the same op
}

// traced is a traced run in progress.
type traced struct {
	e      *env
	outDir string
	sc     scale
	m      map[string]value

	node *node // serves the workload's corpora over HTTP
	cl   *client
	want []uint64 // the answer hash of each op of a pass
}

func (t *traced) set(name string, v float64) { t.m[name] = value{v: v} }

// pass runs ops [0, t.sc.passOps) from the closed loop's clients and
// returns each op's latency in µs.
func (t *traced) pass(do func(i int, o op) error) []float64 {
	lat := make([]float64, t.sc.passOps)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < t.sc.passOps; i = int(next.Add(1) - 1) {
				o := t.e.opAt(i)
				t0 := time.Now()
				err := do(i, o)
				lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
				t.e.attempted.Add(1)
				if err != nil {
					t.e.fail("traced op %d: %v", i, err)
				}
			}
		}()
	}
	wg.Wait()
	return lat
}

// tauOf is the threshold o runs under at the backend.
func tauOf(o op) float64 {
	if o.tau != nil {
		return *o.tau
	}
	return o.part.spec.tau
}

// serve answers one search body through the node's handler without a
// network, the way the server layer is timed.
func (t *traced) serve(path string, body []byte) (*httptest.ResponseRecorder, error) {
	rec := httptest.NewRecorder()
	t.node.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code/100 != 2 {
		return rec, fmt.Errorf("handler %s: status %d: %s", path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec, nil
}

// runTraced is the traced run of one workload: every per-layer metric,
// and the span file.
func runTraced(s spec, seed int64, outDir string, sc scale) (result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	e, err := prepare(s, seed, true, 0)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", s.name, err)
	}
	defer e.close()
	t := &traced{e: e, outDir: outDir, sc: sc, m: map[string]value{}}
	defer t.removeSnapshots()
	steps := []struct {
		name string
		run  func() error
	}{
		{"kernels", t.kernels}, {"snapshots", t.snapshots}, {"serving", t.serving}, {"chain", t.chain},
		{"filters", t.filters}, {"sharding", t.sharding}, {"allocations", t.allocations}, {"topk", t.topk},
		{"joins", t.joins}, {"batches", t.batches}, {"openLoop", t.openLoop}, {"scrape", t.scrape}, {"cluster", t.cluster},
	}
	for _, step := range steps {
		t0 := time.Now()
		if err := step.run(); err != nil {
			return result{}, fmt.Errorf("%s: %s: %w", s.name, step.name, err)
		}
		logf("%s: traced %s in %.2fs", s.name, step.name, time.Since(t0).Seconds())
	}
	if t.node != e.node {
		t.cl.close()
		t.node.stop()
	}
	t.set("server.non2xx_total", float64(t.cl.non2xx.Load()))
	return result{workload: s.name, attempted: e.attempted.Load(), failed: e.failed.Load(), metrics: t.m}, nil
}

// kernels times the roofline unit: one Hamming distance at the two
// dimensions the hamming workloads use.
func (t *traced) kernels() error {
	for _, d := range []int{256, 512} {
		rng := rand.New(rand.NewSource(int64(d)))
		vs := make([]bitvec.Vector, 1024)
		for i := range vs {
			vs[i] = bitvec.Random(rng, d)
		}
		const reps = 2000
		sink := 0
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			for i := range vs {
				sink += bitvec.Hamming(vs[i], vs[(i+r)%len(vs)])
			}
		}
		ns := float64(time.Since(t0).Nanoseconds()) / float64(reps*len(vs))
		if sink < 0 { // never; keeps the distances from being optimized away
			return fmt.Errorf("negative distance sum")
		}
		t.set(fmt.Sprintf("bitvec.distance%d_ns", d), ns)
	}
	return nil
}

func (t *traced) snapFile(p *part, kind string) string {
	return fmt.Sprintf("%s-%s-%s.snap", t.e.spec.name, p.spec.problem, kind)
}

// removeSnapshots deletes the run's snapshot files; the span file is
// what a traced run leaves behind.
func (t *traced) removeSnapshots() {
	for _, p := range t.e.parts {
		for _, kind := range []string{"search", "join"} {
			// A join file exists only where the join index is its own.
			_ = os.Remove(filepath.Join(t.outDir, t.snapFile(p, kind)))
		}
	}
}

// snapshots writes every part's search and join index to the output
// directory, times the search index's write and open against its build,
// and checks that the opened index answers like the built one.
func (t *traced) snapshots() error {
	var writeS, openS, buildS, backendS float64
	var size, objects int64
	for _, p := range t.e.parts {
		backendS += p.backendS
		path := filepath.Join(t.outDir, t.snapFile(p, "search"))
		t0 := time.Now()
		n, err := engine.WriteSnapshotFile(p.index, path, nil)
		if err != nil {
			return err
		}
		writeS += time.Since(t0).Seconds()
		t0 = time.Now()
		opened, _, err := engine.OpenSnapshotFile(path, workers, nil)
		if err != nil {
			return err
		}
		openS += time.Since(t0).Seconds()
		buildS += p.buildS
		size += n
		objects += int64(p.index.Len())
		for q := 0; q < min(p.spec.oracleQueries, len(p.queries)); q++ {
			o := t.e.opFor(p, q)
			opt := engine.Options{Tau: o.tau}
			a, _, errA := p.index.Search(context.Background(), p.queries[q], opt)
			b, _, errB := opened.Search(context.Background(), p.queries[q], opt)
			t.e.attempted.Add(1)
			if errA != nil || errB != nil || !slices.Equal(a, b) {
				t.e.fail("%s query %d: the snapshot-opened index answers differently (%v, %v)", p.spec.problem, q, errA, errB)
			}
		}
		if p.join != p.index {
			if _, err := engine.WriteSnapshotFile(p.join, filepath.Join(t.outDir, t.snapFile(p, "join")), nil); err != nil {
				return err
			}
		}
	}
	t.set("backend.build_s", backendS)
	t.set("snapshot.write_ms", writeS*1e3)
	t.set("snapshot.open_ms", openS*1e3)
	t.set("snapshot.bytes_per_object", float64(size)/float64(objects))
	t.set("snapshot.open_vs_build", openS/buildS)
	return nil
}

// loadSnapshots points a node at the parts' snapshot files.
func (t *traced) loadSnapshots(cl *client, kind string) error {
	for _, p := range t.e.parts {
		name := t.snapFile(p, kind)
		if kind == "join" && p.join == p.index {
			name = t.snapFile(p, "search")
		}
		var resp server.LoadResponse
		if err := cl.postJSON("/v1/load", server.LoadRequest{Snapshot: name}, &resp); err != nil {
			return err
		}
	}
	return nil
}

// serving makes the workload's corpora reachable over HTTP. The HTTP
// workload's own server already is; an in-process workload gets a node
// loaded from the snapshots just written, so that the serving layers
// can be timed on its queries too.
func (t *traced) serving() error {
	if t.e.spec.http {
		t.node, t.cl = t.e.node, t.e.cl
		t.set("server.load_s", t.e.setupS)
		return nil
	}
	var err error
	if t.node, err = startNode(t.outDir); err != nil {
		return err
	}
	t.cl = newClient(t.node.url, clients)
	t0 := time.Now()
	if err := t.loadSnapshots(t.cl, "search"); err != nil {
		return err
	}
	t.set("server.load_s", time.Since(t0).Seconds())
	return nil
}

// cross issues o at layer l, timing the call alone: requests are
// encoded before the clock starts, and the handler's answer is decoded
// after it stops. ids is nil for the two backend layers, which are
// called for their time only.
func (t *traced) cross(l int, o op) (ids []int64, st engine.Stats, t0 time.Time, d time.Duration, err error) {
	p, q := o.part, o.part.queries[o.q]
	switch l {
	case layerTransport, layerServer:
		var body []byte
		if body, err = json.Marshal(o.request(kindSearch, 0)); err != nil {
			return
		}
		var resp server.SearchResponse
		t0 = time.Now()
		if l == layerTransport {
			err = t.cl.post("/v1/search", body, &resp)
			d = time.Since(t0)
		} else {
			var rec *httptest.ResponseRecorder
			rec, err = t.serve("/v1/search", body)
			d = time.Since(t0)
			if err == nil {
				err = json.Unmarshal(rec.Body.Bytes(), &resp)
			}
		}
		return resp.IDs, resp.Stats, t0, d, err
	case layerEngine:
		t0 = time.Now()
		ids, st, err = p.index.Search(context.Background(), q, engine.Options{Tau: o.tau})
		return ids, st, t0, time.Since(t0), err
	default:
		t0 = time.Now()
		_, err = p.be.search(q, tauOf(o), false, l == layerFilter)
		return nil, st, t0, time.Since(t0), err
	}
}

// layerOp is the op layer l runs as part of traced op i: the schedule
// rotated by a fifth of the pass per layer — whole cycles of every mix
// and τ cycle, so the same part and τ as op i on another query.
func (t *traced) layerOp(i, l int) (int, op) {
	j := (i + l*(t.sc.passOps/len(layers))) % t.sc.passOps
	return j, t.e.opAt(j)
}

// chain is the traced pass proper. Every op crosses the layer
// boundaries in turn, outermost first, timing the call into each. The
// searches are memory-bound — a query run again at once finds its
// postings cached and takes a third of the time — so the layers of one
// op do not repeat one query: each runs the pass's ops rotated by a
// fifth (layerOp). Over the pass every layer then runs exactly the
// same queries, each with the caches as cold as the untraced ops find
// them, and a layer's self time — its span minus the next-inner one —
// is a difference of medians over the pass, not an op-by-op figure.
// An untraced pass over the same ops comes first (it also fixes the
// expected answers), for the tracing overhead.
func (t *traced) chain() error {
	e := t.e
	t.want = make([]uint64, t.sc.passOps)
	t.pass(func(i int, o op) error { // warm-up
		ids, err := e.search(o, 0)
		t.want[i] = hashIDs(ids)
		return err
	})
	untraced := t.pass(func(_ int, o op) error {
		_, err := e.search(o, 0)
		return err
	})

	var dur [len(layers)][]float64
	for l := range dur {
		dur[l] = make([]float64, t.sc.passOps)
	}
	spans := make([]span, t.sc.passOps*len(layers))
	stats := make([]engine.Stats, t.sc.passOps) // of the engine layer's call
	reqBytes, respBytes := t.cl.reqBytes.Load(), t.cl.respBytes.Load()
	start := time.Now()
	t.pass(func(i int, _ op) error {
		for l, name := range layers {
			j, o := t.layerOp(i, l)
			ids, st, t0, d, err := t.cross(l, o)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if l <= layerEngine && hashIDs(ids) != t.want[j] {
				return fmt.Errorf("%s: answer differs from the entry layer's", name)
			}
			sp := span{Op: i, Name: name, Start: t0.Sub(start).Nanoseconds(), End: (t0.Sub(start) + d).Nanoseconds()}
			if l > 0 {
				sp.Parent = layers[l-1]
			}
			spans[i*len(layers)+l] = sp
			dur[l][i] = float64(d.Nanoseconds()) / 1e3
			if l == layerEngine {
				stats[i] = st
			}
		}
		return nil
	})
	var work engine.Stats
	for _, st := range stats {
		work.Candidates += st.Candidates
		work.Probes += st.Probes
		work.BoxChecks += st.BoxChecks
		work.Results += st.Results
	}

	// The self times telescope: they sum to the outermost span.
	var p50, self [len(layers)]float64
	for l := range layers {
		p50[l] = median(dur[l])
	}
	fmt.Printf("%-26s %-10s %12s %12s\n", e.spec.name, "layer", "span p50 us", "self p50 us")
	for l, name := range layers {
		self[l] = p50[l]
		if l+1 < len(layers) {
			self[l] -= p50[l+1]
		}
		fmt.Printf("%-26s %-10s %12.1f %12.1f\n", e.spec.name, name, p50[l], self[l])
	}

	ops := float64(t.sc.passOps)
	cands := float64(max(work.Candidates, 1))
	t.set("server.transport_p50_us", self[layerTransport])
	t.set("server.handler_p50_us", p50[layerServer])
	t.set("server.codec_overhead_us", self[layerServer])
	t.set("engine.search_p50_us", p50[layerEngine])
	t.set("engine.adapter_overhead_us", self[layerEngine])
	t.set("backend.search_p50_us", p50[layerBackend])
	t.set("backend.filter_p50_us", p50[layerFilter])
	t.set("backend.verify_ns_per_cand", self[layerBackend]*1e3*ops/cands)
	t.set("backend.cands_per_op", float64(work.Candidates)/ops)
	t.set("backend.probes_per_op", float64(work.Probes)/ops)
	t.set("backend.boxchecks_per_op", float64(work.BoxChecks)/ops)
	t.set("backend.results_per_op", float64(work.Results)/ops)
	t.set("backend.useful_cand_frac", float64(work.Results)/cands)
	t.set("server.req_bytes_per_op", float64(t.cl.reqBytes.Load()-reqBytes)/ops)
	t.set("server.resp_bytes_per_op", float64(t.cl.respBytes.Load()-respBytes)/ops)
	// Tracing overhead: the workload's entry layer as the traced pass
	// saw it against the same ops untraced.
	entry := layerEngine
	if e.spec.http {
		entry = layerTransport
	}
	t.set("trace.overhead_frac", (p50[entry]-median(untraced))/median(untraced))

	// The inline-payload cost: the handler on the pass's queries sent
	// as a queryId against the same queries sent inline, half a pass
	// apart.
	var byForm [2][]float64
	for form := range byForm {
		byForm[form] = make([]float64, t.sc.passOps)
	}
	t.pass(func(i int, _ op) error {
		for form, inline := range []bool{false, true} {
			o := e.opAt((i + form*t.sc.passOps/2) % t.sc.passOps)
			o.inline = inline
			body, err := json.Marshal(o.request(kindSearch, 0))
			if err != nil {
				return err
			}
			t0 := time.Now()
			if _, err := t.serve("/v1/search", body); err != nil {
				return err
			}
			byForm[form][i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		}
		return nil
	})
	t.set("server.inline_decode_us", median(byForm[1])-median(byForm[0]))

	out, err := json.Marshal(struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Layers   []string `json:"layers"`
		Spans    []span   `json:"spans"`
	}{e.spec.name, e.seed, layers[:], spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(t.outDir, "trace-"+e.spec.name+".json"), out, 0o644)
}

// filters compares the ring filter with the pigeonhole baseline on the
// bare backend, and times the range probe joins are made of.
func (t *traced) filters() error {
	ring := t.pass(func(_ int, o op) error {
		_, err := o.part.be.search(o.part.queries[o.q], tauOf(o), false, false)
		return err
	})
	var holeCands atomic.Int64
	hole := t.pass(func(_ int, o op) error {
		c, err := o.part.be.search(o.part.queries[o.q], tauOf(o), true, false)
		holeCands.Add(int64(c))
		return err
	})
	t.set("backend.hole_p50_us", median(hole))
	t.set("backend.hole_cands_per_op", float64(holeCands.Load())/float64(t.sc.passOps))
	t.set("backend.ring_vs_hole_time", median(ring)/median(hole))

	var pool sync.Pool
	pool.New = func() any { return new([]int64) }
	probe := t.pass(func(_ int, o op) error {
		dst := pool.Get().(*[]int64)
		defer pool.Put(dst)
		var err error
		*dst, err = o.part.be.rangeProbe(o.part.queries[o.q], tauOf(o), 0, o.part.spec.n/2, (*dst)[:0])
		return err
	})
	t.set("backend.range_probe_p50_us", median(probe))
	return nil
}

// sharding times the same searches on the unsharded adapter and on a
// 4-shard engine.Sharded over the same corpus.
func (t *traced) sharding() error {
	shards := 1
	sharded := map[*part]engine.Index{}
	for _, p := range t.e.parts {
		if sh, ok := p.index.(*engine.Sharded); ok {
			sharded[p] = sh
			shards = max(shards, sh.Shards())
			continue
		}
		var err error
		if sharded[p], err = p.corpus.build(p.spec.n, p.spec.tau, 4); err != nil {
			return err
		}
	}
	search := func(pick func(p *part) engine.Index) []float64 {
		return t.pass(func(i int, o op) error {
			ids, _, err := pick(o.part).Search(context.Background(), o.part.queries[o.q], engine.Options{Tau: o.tau})
			if err == nil && hashIDs(ids) != t.want[i] {
				err = fmt.Errorf("answer differs from the entry layer's")
			}
			return err
		})
	}
	onPlain := search(func(p *part) engine.Index { return p.be.plain })
	onSharded := search(func(p *part) engine.Index { return sharded[p] })
	t.set("engine.shards", float64(shards))
	t.set("engine.sharded_vs_plain_time", median(onSharded)/median(onPlain))
	return nil
}

// allocations counts heap allocations of the engine search from a
// single goroutine with everything else idle.
func (t *traced) allocations() error {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < allocOps; i++ {
		o := t.e.opAt(i)
		if _, _, err := o.part.index.Search(context.Background(), o.part.queries[o.q], engine.Options{Tau: o.tau}); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	t.set("engine.allocs_per_search", float64(after.Mallocs-before.Mallocs)/allocOps)
	t.set("engine.bytes_per_search", float64(after.TotalAlloc-before.TotalAlloc)/allocOps)
	return nil
}

// topk counts the ladder's work, and records the tail of searches
// that carry no τ cap (on hamming the ladder then climbs to the
// dimension; the other backends always stop at their built τ).
func (t *traced) topk() error {
	var rungs, cands atomic.Int64
	t.pass(func(_ int, o op) error {
		_, st, err := o.part.index.(engine.TopKSearcher).SearchTopK(context.Background(), o.part.queries[o.q],
			engine.Options{TopK: topK, Tau: o.topkCap})
		rungs.Add(int64(st.Rungs))
		cands.Add(int64(st.Candidates))
		return err
	})
	t.set("engine.topk_rungs_per_op", float64(rungs.Load())/float64(t.sc.passOps))
	t.set("engine.topk_cands_per_op", float64(cands.Load())/float64(t.sc.passOps))

	var worst time.Duration
	for i := 0; i < uncappedOps; i++ {
		o := t.e.opAt(i)
		t0 := time.Now()
		_, _, err := o.part.index.(engine.TopKSearcher).SearchTopK(context.Background(), o.part.queries[o.q], engine.Options{TopK: topK})
		if err != nil {
			return err
		}
		worst = max(worst, time.Since(t0))
	}
	t.set("engine.topk_uncapped_max_ms", worst.Seconds()*1e3)
	return nil
}

// twoAgainstOne times f on the benchmark's two workers and then with
// GOMAXPROCS at 1 — what "one worker" means for code whose pool width
// follows GOMAXPROCS or was fixed when the index was built.
func twoAgainstOne(f func(w int) error) (two, one time.Duration, err error) {
	t0 := time.Now()
	if err = f(workers); err != nil {
		return
	}
	two = time.Since(t0)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	t0 = time.Now()
	err = f(1)
	return two, time.Since(t0), err
}

// joins counts the self-join's work and times it on two workers
// against one.
func (t *traced) joins() error {
	var work engine.Stats
	rows := 0
	two, one, err := twoAgainstOne(func(w int) error {
		for _, pi := range t.e.spec.joinParts {
			p := t.e.parts[pi]
			_, st, err := p.join.(engine.Joiner).Join(context.Background(), engine.JoinOptions{})
			if err != nil {
				return err
			}
			if w == workers { // count the work once
				rows += p.join.Len()
				work.Candidates += st.Candidates
				work.Pairs += st.Pairs
				work.JoinTiles += st.JoinTiles
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.set("engine.join_cands_per_row", float64(work.Candidates)/float64(rows))
	t.set("engine.join_pairs", float64(work.Pairs))
	t.set("engine.join_tiles", float64(work.JoinTiles))
	t.set("parallel.join_speedup_2w", one.Seconds()/two.Seconds())
	return nil
}

// batches times engine.SearchBatch over the traced ops' queries, part
// by part, on two workers against one.
func (t *traced) batches() error {
	queries := map[*part][]engine.Query{}
	for i := 0; i < t.sc.passOps; i++ {
		o := t.e.opAt(i)
		queries[o.part] = append(queries[o.part], o.part.queries[o.q])
	}
	two, one, err := twoAgainstOne(func(w int) error {
		for _, p := range t.e.parts {
			for _, r := range engine.SearchBatch(context.Background(), p.index, queries[p], engine.Options{}, w) {
				if r.Err != nil {
					return r.Err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.set("engine.batch_ops_per_s", float64(t.sc.passOps)/two.Seconds())
	t.set("parallel.batch_speedup_2w", one.Seconds()/two.Seconds())
	return nil
}

// openLoop sends searches at the workload's fixed rate whatever the
// server does, and times each from the moment it was due — so a stall
// is charged to every request it delays, not just the one in flight.
// How late the senders themselves ran is reported beside it.
func (t *traced) openLoop() error {
	rate := t.e.spec.openLoopRate
	total := int(t.sc.openLoop.Seconds() * float64(rate))
	cl := newClient(t.node.url, openLoopConn)
	defer cl.close()
	latency := make([]float64, total)
	lateness := make([]float64, total)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < openLoopConn; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < total; i = int(next.Add(1) - 1) {
				body, err := json.Marshal(t.e.opAt(i).request(kindSearch, 0))
				if err != nil {
					t.e.fail("open loop op %d: %v", i, err)
					continue
				}
				due := start.Add(time.Duration(i) * time.Second / time.Duration(rate))
				time.Sleep(time.Until(due))
				lateness[i] = float64(time.Since(due).Nanoseconds()) / 1e3
				var resp server.SearchResponse
				err = cl.post("/v1/search", body, &resp)
				latency[i] = float64(time.Since(due).Nanoseconds()) / 1e3
				t.e.attempted.Add(1)
				if err != nil {
					t.e.fail("open loop op %d: %v", i, err)
				} else if i < t.sc.passOps && hashIDs(resp.IDs) != t.want[i] {
					t.e.fail("open loop op %d: answer differs from the closed loop's", i)
				}
			}
		}()
	}
	wg.Wait()
	t.cl.non2xx.Add(cl.non2xx.Load())
	t.set("server.openloop_rate_per_s", float64(total)/time.Since(start).Seconds())
	t.set("server.openloop_p50_us", percentile(latency, 0.50))
	t.set("server.openloop_p99_us", percentile(latency, 0.99))
	t.set("loadgen.lateness_p99_us", percentile(lateness, 0.99))
	return nil
}

// scrape times GET /metrics once everything above has been recorded.
func (t *traced) scrape() error {
	var ms []float64
	for i := 0; i < 5; i++ {
		rec := httptest.NewRecorder()
		t0 := time.Now()
		t.node.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		ms = append(ms, time.Since(t0).Seconds()*1e3)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("GET /metrics: status %d", rec.Code)
		}
	}
	t.set("telemetry.scrape_ms", median(ms))
	return nil
}

// cluster puts a coordinator over three more nodes holding the same
// corpora and times scattered searches and joins through it. Four
// servers on two cores measure the scheduler as much as the code, so
// these are reported for the record.
func (t *traced) cluster() error {
	var urls []string
	var loaders []*client
	for r := 0; r < replicas; r++ {
		n, err := startNode(t.outDir)
		if err != nil {
			return err
		}
		defer n.stop()
		cl := newClient(n.url, 1)
		defer cl.close()
		if err := t.loadSnapshots(cl, "search"); err != nil {
			return err
		}
		urls, loaders = append(urls, n.url), append(loaders, cl)
	}
	co, err := cluster.New(cluster.Config{Replicas: urls})
	if err != nil {
		return err
	}
	ctx := context.Background()
	if err := co.Attach(ctx); err != nil {
		return err
	}
	scattered := t.pass(func(i int, o op) error {
		ids, _, err := co.Search(ctx, o.request(kindSearch, 0))
		if err == nil && hashIDs(ids) != t.want[i] {
			err = fmt.Errorf("the cluster's answer differs from the single node's")
		}
		return err
	})
	single := t.pass(func(_ int, o op) error {
		var resp server.SearchResponse
		return t.cl.postJSON("/v1/search", o.request(kindSearch, 0), &resp)
	})
	t.set("cluster.search_p50_us", median(scattered))
	t.set("cluster.scatter_overhead_us", median(scattered)-median(single))

	for _, cl := range loaders {
		if err := t.loadSnapshots(cl, "join"); err != nil {
			return err
		}
	}
	if err := co.Attach(ctx); err != nil {
		return err
	}
	var joinS float64
	for _, pi := range t.e.spec.joinParts {
		p := t.e.parts[pi]
		t0 := time.Now()
		pairs, _, err := co.Join(ctx, server.JoinRequest{Problem: string(p.spec.problem)})
		joinS += time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		want, _, err := p.join.(engine.Joiner).Join(ctx, engine.JoinOptions{})
		t.e.attempted.Add(1)
		if err != nil || !slices.Equal(pairs, wirePairs(want)) {
			t.e.fail("cluster join of %s: %d pairs, the engine has %d (%v)", p.spec.problem, len(pairs), len(want), err)
		}
	}
	t.set("cluster.join_s", joinS)
	t.set("cluster.retries_total", float64(co.Registry().Counter("pigeonring_cluster_tile_retries_total", "").Value()))
	return nil
}
