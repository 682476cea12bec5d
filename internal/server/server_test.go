package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/setsim"
)

// harness spins the handler up behind httptest and decodes JSON
// round-trips.
type harness struct {
	t   *testing.T
	srv *httptest.Server
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	return newHarnessServer(t, New(0, 0))
}

func newHarnessServer(t *testing.T, s *Server) *harness {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &harness{t: t, srv: ts}
}

func (h *harness) post(path string, body, out any) (int, string) {
	h.t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := http.Post(h.srv.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	raw.ReadFrom(resp.Body)
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(raw.Bytes(), out); err != nil {
			h.t.Fatalf("decoding %s response %q: %v", path, raw.String(), err)
		}
	}
	return resp.StatusCode, raw.String()
}

func (h *harness) get(path string, out any) int {
	h.t.Helper()
	resp, err := http.Get(h.srv.URL + path)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			h.t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func (h *harness) load(req LoadRequest) LoadResponse {
	h.t.Helper()
	var resp LoadResponse
	if code, body := h.post("/v1/load", req, &resp); code != http.StatusOK {
		h.t.Fatalf("load %+v: status %d body %s", req, code, body)
	}
	return resp
}

func (h *harness) search(req SearchRequest) SearchResponse {
	h.t.Helper()
	var resp SearchResponse
	if code, body := h.post("/v1/search", req, &resp); code != http.StatusOK {
		h.t.Fatalf("search %+v: status %d body %s", req, code, body)
	}
	return resp
}

func sameIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestServesAllFourProblems is the end-to-end acceptance test: load a
// sharded index per problem over HTTP, search it, and check every
// response against a locally built unsharded engine index on the same
// deterministic dataset.
func TestServesAllFourProblems(t *testing.T) {
	h := newHarness(t)

	const seed = 5
	vecs := dataset.GIST(400, seed)
	sets := dataset.DBLP(400, seed)
	strs := dataset.IMDB(400, seed)
	graphs := dataset.AIDS(60, seed)

	local := map[string]engine.Index{}
	mk := func(name string) func(engine.Index, error) {
		return func(ix engine.Index, err error) {
			if err != nil {
				t.Fatal(err)
			}
			local[name] = ix
		}
	}
	mk("hamming")(engine.BuildHamming(vecs, 16, 24, 1, 0))
	mk("set")(engine.BuildSet(sets, setsim.Config{Measure: setsim.Jaccard, Tau: 0.8, M: 5}, 1, 0))
	mk("string")(engine.BuildString(strs, 2, 2, 1, 0))
	mk("graph")(engine.BuildGraph(graphs, 3, 1, 0))

	sizes := map[string]int{"hamming": 400, "set": 400, "string": 400, "graph": 60}
	for _, problem := range []string{"hamming", "set", "string", "graph"} {
		resp := h.load(LoadRequest{Problem: problem, N: sizes[problem], Seed: seed, Shards: 3})
		if resp.Shards != 3 {
			t.Fatalf("%s: loaded %d shards, want 3", problem, resp.Shards)
		}
		if resp.N != sizes[problem] {
			t.Fatalf("%s: loaded n=%d, want %d", problem, resp.N, sizes[problem])
		}
		for _, qi := range dataset.SampleQueries(sizes[problem], 3, seed) {
			qi := qi
			got := h.search(SearchRequest{Problem: problem, QueryID: &qi, Timings: true})
			var q engine.Query
			switch problem {
			case "hamming":
				q = engine.VectorQuery(vecs[qi])
			case "set":
				q = engine.SetQuery(sets[qi])
			case "string":
				q = engine.StringQuery(strs[qi])
			case "graph":
				q = engine.GraphQuery(graphs[qi])
			}
			want, _, err := local[problem].Search(context.Background(), q, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = []int64{}
			}
			if !sameIDs(got.IDs, want) {
				t.Fatalf("%s query %d: served ids %v, local engine %v", problem, qi, got.IDs, want)
			}
			if got.Stats.Results != len(want) {
				t.Fatalf("%s query %d: stats results %d, want %d", problem, qi, got.Stats.Results, len(want))
			}
			if len(got.Stats.PerShard) != 3 {
				t.Fatalf("%s query %d: per-shard stats %d, want 3", problem, qi, len(got.Stats.PerShard))
			}
		}
	}

	// Live stats reflect the traffic.
	var st StatsResponse
	if code := h.get("/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if len(st.Problems) != 4 {
		t.Fatalf("stats cover %d problems, want 4", len(st.Problems))
	}
	for p, ps := range st.Problems {
		if ps.Queries != 3 {
			t.Fatalf("%s: %d queries recorded, want 3", p, ps.Queries)
		}
		if ps.WallMS <= 0 {
			t.Fatalf("%s: no wall time recorded", p)
		}
	}
}

func TestInlineQueries(t *testing.T) {
	h := newHarness(t)
	const seed = 6

	// Hamming: vector as a bit string.
	vecs := dataset.GIST(200, seed)
	h.load(LoadRequest{Problem: "hamming", N: 200, Seed: seed, Shards: 2})
	hix, err := engine.BuildHamming(vecs, 16, 24, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := h.search(SearchRequest{Problem: "hamming", Vector: vecs[7].String()})
	want, _, err := hix.Search(context.Background(), engine.VectorQuery(vecs[7]), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(got.IDs, want) {
		t.Fatalf("inline vector ids %v, want %v", got.IDs, want)
	}

	// String: plain string payload.
	strs := dataset.IMDB(200, seed)
	h.load(LoadRequest{Problem: "string", N: 200, Seed: seed, Shards: 2})
	six, err := engine.BuildString(strs, 2, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	q := strs[9]
	got = h.search(SearchRequest{Problem: "string", String: &q})
	want, _, err = six.Search(context.Background(), engine.StringQuery(q), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(got.IDs, want) {
		t.Fatalf("inline string ids %v, want %v", got.IDs, want)
	}

	// Set: token ids.
	sets := dataset.DBLP(200, seed)
	h.load(LoadRequest{Problem: "set", N: 200, Seed: seed, Shards: 2})
	setix, err := engine.BuildSet(sets, setsim.Config{Measure: setsim.Jaccard, Tau: 0.8, M: 5}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	got = h.search(SearchRequest{Problem: "set", Set: sets[11]})
	want, _, err = setix.Search(context.Background(), engine.SetQuery(sets[11]), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(got.IDs, want) {
		t.Fatalf("inline set ids %v, want %v", got.IDs, want)
	}

	// Graph: explicit spec.
	graphs := dataset.AIDS(50, seed)
	h.load(LoadRequest{Problem: "graph", N: 50, Seed: seed, Shards: 2})
	gix, err := engine.BuildGraph(graphs, 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := graphs[4]
	spec := GraphSpec{N: g.N()}
	for v := 0; v < g.N(); v++ {
		spec.VertexLabels = append(spec.VertexLabels, g.VertexLabel(v))
	}
	for _, e := range g.Edges() {
		spec.Edges = append(spec.Edges, [3]int{e.U, e.V, int(e.Label)})
	}
	got = h.search(SearchRequest{Problem: "graph", Graph: &spec})
	want, _, err = gix.Search(context.Background(), engine.GraphQuery(g), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(got.IDs, want) {
		t.Fatalf("inline graph ids %v, want %v", got.IDs, want)
	}
}

func TestBatchSearch(t *testing.T) {
	h := newHarness(t)
	const seed = 7
	h.load(LoadRequest{Problem: "hamming", N: 300, Seed: seed, Shards: 2})

	ids := []int{3, 50, 123, 7}
	var resp BatchResponse
	if code, body := h.post("/v1/search/batch", BatchRequest{Problem: "hamming", QueryIDs: ids}, &resp); code != http.StatusOK {
		t.Fatalf("batch: status %d body %s", code, body)
	}
	if len(resp.Results) != len(ids) {
		t.Fatalf("batch returned %d results, want %d", len(resp.Results), len(ids))
	}
	for i, qi := range ids {
		qi := qi
		single := h.search(SearchRequest{Problem: "hamming", QueryID: &qi})
		if resp.Results[i].Error != "" {
			t.Fatalf("batch item %d failed: %s", i, resp.Results[i].Error)
		}
		if !sameIDs(resp.Results[i].IDs, single.IDs) {
			t.Fatalf("batch item %d ids %v, single %v", i, resp.Results[i].IDs, single.IDs)
		}
	}

	var st StatsResponse
	h.get("/v1/stats", &st)
	if got := st.Problems["hamming"].Queries; got != int64(len(ids)+len(ids)) {
		t.Fatalf("stats queries = %d, want %d", got, 2*len(ids))
	}
}

func TestErrorPaths(t *testing.T) {
	h := newHarness(t)

	// Unknown problem.
	if code, _ := h.post("/v1/load", LoadRequest{Problem: "vector"}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown problem: status %d, want 400", code)
	}
	// Search before load.
	qi := 0
	if code, _ := h.post("/v1/search", SearchRequest{Problem: "hamming", QueryID: &qi}, nil); code != http.StatusNotFound {
		t.Fatalf("search before load: status %d, want 404", code)
	}

	h.load(LoadRequest{Problem: "hamming", N: 50, Seed: 1, Shards: 2})
	// Out-of-range queryId.
	bad := 50
	if code, _ := h.post("/v1/search", SearchRequest{Problem: "hamming", QueryID: &bad}, nil); code != http.StatusBadRequest {
		t.Fatalf("out-of-range queryId: status %d, want 400", code)
	}
	// Missing payload.
	if code, _ := h.post("/v1/search", SearchRequest{Problem: "hamming"}, nil); code != http.StatusBadRequest {
		t.Fatalf("missing payload: status %d, want 400", code)
	}
	// Wrong-dimension inline vector.
	if code, _ := h.post("/v1/search", SearchRequest{Problem: "hamming", Vector: "0101"}, nil); code != http.StatusBadRequest {
		t.Fatalf("wrong dimension: status %d, want 400", code)
	}
	// Unknown dataset.
	if code, _ := h.post("/v1/load", LoadRequest{Problem: "hamming", Dataset: "imagenet"}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown dataset: status %d, want 400", code)
	}
	// Empty batch.
	if code, _ := h.post("/v1/search/batch", BatchRequest{Problem: "hamming"}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", code)
	}
	// Fractional τ on an integer-distance problem: load and search.
	if code, _ := h.post("/v1/load", LoadRequest{Problem: "hamming", N: 50, Tau: engine.Tau(23.9)}, nil); code != http.StatusBadRequest {
		t.Fatalf("fractional load τ: status %d, want 400", code)
	}
	if code, _ := h.post("/v1/search", SearchRequest{Problem: "hamming", QueryID: &qi, Tau: engine.Tau(23.9)}, nil); code != http.StatusBadRequest {
		t.Fatalf("fractional search τ: status %d, want 400", code)
	}
	// A part count whose parts would not fit a word: 256-bit gist
	// vectors in one part.
	if code, body := h.post("/v1/load", LoadRequest{Problem: "hamming", N: 200, M: 1}, nil); code != http.StatusBadRequest {
		t.Fatalf("m=1 on 256 bits: status %d body %q, want 400", code, body)
	}
	// Graph query validation must reject, not panic: negative edge
	// label, negative vertex label, oversized n.
	h.load(LoadRequest{Problem: "graph", N: 20, Seed: 1})
	for name, spec := range map[string]GraphSpec{
		"negative edge label":   {N: 2, VertexLabels: []int32{0, 0}, Edges: [][3]int{{0, 1, -1}}},
		"negative vertex label": {N: 2, VertexLabels: []int32{-1, 0}},
		"oversized n":           {N: 1 << 20},
	} {
		spec := spec
		if code, body := h.post("/v1/search", SearchRequest{Problem: "graph", Graph: &spec}, nil); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d body %q, want 400", name, code, body)
		}
	}
	// Ambiguous query: both queryId and an inline payload.
	if code, _ := h.post("/v1/search", SearchRequest{Problem: "hamming", QueryID: &qi, Vector: "0101"}, nil); code != http.StatusBadRequest {
		t.Fatalf("ambiguous query: status %d, want 400", code)
	}
	// Oversized batch.
	big := make([]int, maxBatchQueries+1)
	if code, _ := h.post("/v1/search/batch", BatchRequest{Problem: "hamming", QueryIDs: big}, nil); code != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400", code)
	}
	// Oversized and negative τ on load.
	if code, _ := h.post("/v1/load", LoadRequest{Problem: "graph", N: 20, Tau: engine.Tau(1e15)}, nil); code != http.StatusBadRequest {
		t.Fatalf("oversized load τ: status %d, want 400", code)
	}
	if code, _ := h.post("/v1/load", LoadRequest{Problem: "graph", N: 20, Tau: engine.Tau(-1)}, nil); code != http.StatusBadRequest {
		t.Fatalf("negative load τ: status %d, want 400", code)
	}
	// Oversized load parameters.
	if code, _ := h.post("/v1/load", LoadRequest{Problem: "hamming", N: 2_000_000_000}, nil); code != http.StatusBadRequest {
		t.Fatalf("oversized n: status %d, want 400", code)
	}
	if code, _ := h.post("/v1/load", LoadRequest{Problem: "set", N: 100, M: 1000}, nil); code != http.StatusBadRequest {
		t.Fatalf("oversized m: status %d, want 400", code)
	}
	if code, _ := h.post("/v1/load", LoadRequest{Problem: "hamming", N: 100, Shards: 10000}, nil); code != http.StatusBadRequest {
		t.Fatalf("oversized shards: status %d, want 400", code)
	}
	// Method not allowed.
	resp, err := http.Get(h.srv.URL + "/v1/load")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/load: status %d, want 405", resp.StatusCode)
	}
	// Health.
	if code := h.get("/v1/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
}

// TestIndexesEndpoint: GET /v1/indexes lists every loaded index with
// its problem, size and τ, sorted by problem name.
func TestIndexesEndpoint(t *testing.T) {
	h := newHarness(t)

	var empty IndexesResponse
	if code := h.get("/v1/indexes", &empty); code != http.StatusOK {
		t.Fatalf("indexes on empty server: status %d", code)
	}
	if len(empty.Indexes) != 0 {
		t.Fatalf("empty server lists %d indexes", len(empty.Indexes))
	}

	h.load(LoadRequest{Problem: "hamming", N: 100, Seed: 1, Shards: 2})
	h.load(LoadRequest{Problem: "graph", N: 20, Seed: 1, Tau: engine.Tau(3)})

	var resp IndexesResponse
	if code := h.get("/v1/indexes", &resp); code != http.StatusOK {
		t.Fatalf("indexes: status %d", code)
	}
	if len(resp.Indexes) != 2 {
		t.Fatalf("listed %d indexes, want 2", len(resp.Indexes))
	}
	if resp.Indexes[0].Problem != "graph" || resp.Indexes[1].Problem != "hamming" {
		t.Fatalf("indexes not sorted by problem: %+v", resp.Indexes)
	}
	g, hm := resp.Indexes[0], resp.Indexes[1]
	if g.N != 20 || g.Tau != 3 || g.Shards != 1 || g.Dataset != "aids" {
		t.Fatalf("graph info %+v", g)
	}
	if hm.N != 100 || hm.Tau != 24 || hm.Shards != 2 || hm.Dataset != "gist" {
		t.Fatalf("hamming info %+v", hm)
	}
}

// TestSearchLimit: "limit" returns the prefix of the unlimited ids and
// shows up in the per-problem limited counter.
func TestSearchLimit(t *testing.T) {
	h := newHarness(t)
	h.load(LoadRequest{Problem: "hamming", N: 400, Seed: 8, Shards: 3, Tau: engine.Tau(40)})

	qi := 3
	full := h.search(SearchRequest{Problem: "hamming", QueryID: &qi})
	if len(full.IDs) < 2 {
		t.Fatalf("query %d has only %d results; too few to exercise limit", qi, len(full.IDs))
	}
	k := len(full.IDs) / 2
	limited := h.search(SearchRequest{Problem: "hamming", QueryID: &qi, Limit: k})
	if !sameIDs(limited.IDs, full.IDs[:k]) {
		t.Fatalf("limit %d ids %v, want %v", k, limited.IDs, full.IDs[:k])
	}
	if !limited.Stats.Limited {
		t.Fatal("limited response did not set stats.limited")
	}

	var st StatsResponse
	h.get("/v1/stats", &st)
	if got := st.Problems["hamming"].Limited; got != 1 {
		t.Fatalf("limited counter = %d, want 1", got)
	}
	if code, _ := h.post("/v1/search", SearchRequest{Problem: "hamming", QueryID: &qi, Limit: -1}, nil); code != http.StatusBadRequest {
		t.Fatalf("negative limit: status %d, want 400", code)
	}
}

// TestSearchDeadline: an unmeetable timeout_ms answers 504 with the
// distinguishable deadline_exceeded code and bumps the cancelled
// counter. The server runs with one fan-out worker, so its 64 graph
// shards are searched strictly in sequence with a context check
// before each. The corpus is sized so the full search takes well over
// 50 ms of CPU-bound GED work: on a GOMAXPROCS=1 runner the context's
// 1 ms timer only runs once async preemption interrupts the search
// goroutine (observed 10–20 ms late), so the search must comfortably
// outlast that worst case or the test races the scheduler — it did at
// N=4000 once the PR-4 allocation pass sped graph search up.
func TestSearchDeadline(t *testing.T) {
	h := newHarnessServer(t, New(1, 0))
	h.load(LoadRequest{Problem: "graph", N: 20000, Seed: 9, Shards: 64})

	qi := 1
	code, body := h.post("/v1/search", SearchRequest{Problem: "graph", QueryID: &qi, TimeoutMS: 1}, nil)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("deadline search: status %d body %s, want 504", code, body)
	}
	if !strings.Contains(body, `"code":"deadline_exceeded"`) {
		t.Fatalf("deadline payload %s lacks deadline_exceeded code", body)
	}

	var st StatsResponse
	h.get("/v1/stats", &st)
	if got := st.Problems["graph"].Cancelled; got != 1 {
		t.Fatalf("cancelled counter = %d, want 1", got)
	}
	if got := st.Problems["graph"].Errors; got != 0 {
		t.Fatalf("deadline counted as error: errors = %d", got)
	}

	// Batch under an unmeetable deadline: whole-batch 504, same code.
	code, body = h.post("/v1/search/batch", BatchRequest{Problem: "graph", QueryIDs: []int{0, 1, 2}, TimeoutMS: 1}, nil)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("deadline batch: status %d body %s, want 504", code, body)
	}
	if !strings.Contains(body, `"code":"deadline_exceeded"`) {
		t.Fatalf("batch deadline payload %s lacks deadline_exceeded code", body)
	}
	if code, _ := h.post("/v1/search", SearchRequest{Problem: "graph", QueryID: &qi, TimeoutMS: -5}, nil); code != http.StatusBadRequest {
		t.Fatalf("negative timeout_ms: status %d, want 400", code)
	}
}

// TestProblemNamesNormalized: the API accepts any casing and
// surrounding whitespace on problem names.
func TestProblemNamesNormalized(t *testing.T) {
	h := newHarness(t)
	h.load(LoadRequest{Problem: "Hamming", N: 80, Seed: 1})
	qi := 2
	got := h.search(SearchRequest{Problem: " HAMMING ", QueryID: &qi})
	if got.Problem != "hamming" {
		t.Fatalf("normalized problem = %q, want hamming", got.Problem)
	}
}

// TestLoadReplacesIndex checks the swap is atomic from a client's view:
// a reload with different parameters serves the new index afterwards.
func TestLoadReplacesIndex(t *testing.T) {
	h := newHarness(t)
	h.load(LoadRequest{Problem: "string", N: 100, Seed: 1, Shards: 1})
	resp := h.load(LoadRequest{Problem: "string", N: 150, Seed: 2, Shards: 3})
	if resp.N != 150 || resp.Shards != 3 {
		t.Fatalf("reload served n=%d shards=%d, want 150/3", resp.N, resp.Shards)
	}
	qi := 149
	got := h.search(SearchRequest{Problem: "string", QueryID: &qi})
	if got.Problem != "string" {
		t.Fatalf("unexpected problem %q", got.Problem)
	}
}

// TestJoinEndpoint: /v1/join over a sharded set index returns exactly
// the pairs of a locally built engine join on the same deterministic
// dataset, and bumps the join counters in /v1/stats.
func TestJoinEndpoint(t *testing.T) {
	h := newHarness(t)
	const n, seed = 400, 6
	h.load(LoadRequest{Problem: "set", N: n, Seed: seed, Shards: 3})

	sets := dataset.DBLP(n, seed)
	local, err := engine.BuildSet(sets, setsim.Config{Measure: setsim.Jaccard, Tau: 0.8, M: 5}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := local.Join(context.Background(), engine.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("reference join found no pairs; pick a denser dataset")
	}

	var resp JoinResponse
	if code, body := h.post("/v1/join", JoinRequest{Problem: "set"}, &resp); code != http.StatusOK {
		t.Fatalf("join: status %d body %s", code, body)
	}
	if len(resp.Pairs) != len(want) {
		t.Fatalf("join returned %d pairs, want %d", len(resp.Pairs), len(want))
	}
	for i, p := range want {
		if resp.Pairs[i] != [2]int64{p.I, p.J} {
			t.Fatalf("pair %d = %v, want [%d %d]", i, resp.Pairs[i], p.I, p.J)
		}
	}
	if resp.Stats.Pairs != len(want) || resp.Stats.JoinTiles < 1 {
		t.Fatalf("stats pairs=%d joinTiles=%d, want %d/≥1", resp.Stats.Pairs, resp.Stats.JoinTiles, len(want))
	}

	// Limit trims to the (i, j)-ascending prefix and flags the cut.
	k := (len(want) + 1) / 2
	var lim JoinResponse
	if code, body := h.post("/v1/join", JoinRequest{Problem: "set", Limit: k}, &lim); code != http.StatusOK {
		t.Fatalf("limited join: status %d body %s", code, body)
	}
	if len(lim.Pairs) != k {
		t.Fatalf("limited join returned %d pairs, want %d", len(lim.Pairs), k)
	}
	for i := range lim.Pairs {
		if lim.Pairs[i] != resp.Pairs[i] {
			t.Fatalf("limited pair %d = %v, want %v", i, lim.Pairs[i], resp.Pairs[i])
		}
	}
	if !lim.Stats.Limited {
		t.Fatal("limited join did not set stats.limited")
	}

	var st StatsResponse
	h.get("/v1/stats", &st)
	ps := st.Problems["set"]
	if ps.Joins != 2 {
		t.Fatalf("joins counter = %d, want 2", ps.Joins)
	}
	if wantPairs := int64(len(want) + k); ps.JoinPairs != wantPairs {
		t.Fatalf("joinPairs counter = %d, want %d", ps.JoinPairs, wantPairs)
	}
	if ps.Queries != 0 {
		t.Fatalf("joins bumped the search query counter to %d", ps.Queries)
	}
}

// TestJoinErrorPaths: parameter validation and the unloaded-problem
// answer mirror the search endpoint's.
func TestJoinErrorPaths(t *testing.T) {
	h := newHarness(t)
	if code, _ := h.post("/v1/join", JoinRequest{Problem: "set"}, nil); code != http.StatusNotFound {
		t.Fatalf("unloaded join: status %d, want 404", code)
	}
	h.load(LoadRequest{Problem: "set", N: 100, Seed: 1})
	if code, _ := h.post("/v1/join", JoinRequest{Problem: "set", Limit: -1}, nil); code != http.StatusBadRequest {
		t.Fatalf("negative limit: status %d, want 400", code)
	}
	if code, _ := h.post("/v1/join", JoinRequest{Problem: "set", TimeoutMS: -1}, nil); code != http.StatusBadRequest {
		t.Fatalf("negative timeout_ms: status %d, want 400", code)
	}
	if code, _ := h.post("/v1/join", JoinRequest{Problem: "nope"}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown problem: status %d, want 400", code)
	}
}

// TestJoinDeadline: an unmeetable timeout_ms fails the join with the
// same 504 deadline_exceeded answer a search gets, bumping the
// cancelled counter — a graph join over many rows has context checks
// between every row search, so a 1 ms deadline always lands on one.
func TestJoinDeadline(t *testing.T) {
	h := newHarnessServer(t, New(1, 0))
	h.load(LoadRequest{Problem: "graph", N: 2000, Seed: 9, Shards: 16})
	code, body := h.post("/v1/join", JoinRequest{Problem: "graph", TimeoutMS: 1}, nil)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("deadline join: status %d body %s, want 504", code, body)
	}
	if !strings.Contains(body, `"code":"deadline_exceeded"`) {
		t.Fatalf("deadline payload %s lacks deadline_exceeded code", body)
	}
	var st StatsResponse
	h.get("/v1/stats", &st)
	if got := st.Problems["graph"].Cancelled; got != 1 {
		t.Fatalf("cancelled counter = %d, want 1", got)
	}
	if got := st.Problems["graph"].Joins; got != 0 {
		t.Fatalf("failed join counted: joins = %d, want 0", got)
	}
}
