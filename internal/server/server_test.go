package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
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

// TestServesAllFourProblems: every problem loads sharded and answers
// queries by id over HTTP, and /v1/stats counts each problem's queries
// and wall time. That the answers are exact is internal/engine's
// TestExactness, whose replicas serve them over HTTP.
func TestServesAllFourProblems(t *testing.T) {
	h := newHarness(t)
	for _, problem := range []string{"hamming", "set", "string", "graph"} {
		if resp := h.load(LoadRequest{Problem: problem, N: 60, Shards: 3}); resp.Shards != 3 || resp.N != 60 {
			t.Fatalf("%s: loaded %d shards of n=%d, want 3 of 60", problem, resp.Shards, resp.N)
		}
		for qi := 0; qi < 3; qi++ {
			h.search(SearchRequest{Problem: problem, QueryID: &qi})
		}
	}
	var st StatsResponse
	if code := h.get("/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if len(st.Problems) != 4 {
		t.Fatalf("stats cover %d problems, want 4", len(st.Problems))
	}
	for p, ps := range st.Problems {
		if ps.Queries != 3 || ps.WallMS <= 0 {
			t.Fatalf("%s: %d queries and %v ms recorded, want 3 and some time", p, ps.Queries, ps.WallMS)
		}
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

// TestBatchHonorsWorkers: Config.Workers caps a batch's query
// parallelism — a one-worker server never runs two of its searches at
// once — and a batch body cannot ask for more.
func TestBatchHonorsWorkers(t *testing.T) {
	s := NewFromConfig(Config{Workers: 1})
	h := newHarnessServer(t, s)
	h.load(LoadRequest{Problem: "hamming", N: 300})
	var running, overlaps atomic.Int32
	s.entries[engine.Hamming].hooks.Stage = func(st engine.Stage, _ time.Duration) {
		if st != engine.StageSearch {
			return
		}
		if running.Add(1) > 1 {
			overlaps.Add(1)
		}
		time.Sleep(2 * time.Millisecond)
		running.Add(-1)
	}
	ids := make([]int, 16)
	for i := range ids {
		ids[i] = i
	}
	if code, body := h.post("/v1/search/batch", BatchRequest{Problem: "hamming", QueryIDs: ids}, nil); code != http.StatusOK {
		t.Fatalf("batch: status %d body %s", code, body)
	}
	if n := overlaps.Load(); n > 0 {
		t.Fatalf("a one-worker server ran batch searches concurrently %d times", n)
	}
	code, body := h.post("/v1/search/batch", json.RawMessage(`{"problem":"hamming","queryIds":[1,2],"workers":8}`), nil)
	if code != http.StatusBadRequest || !strings.Contains(body, "workers") {
		t.Fatalf("batch with workers: status %d body %s, want 400 naming the field", code, body)
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
	// The filter/verify split is a skipVerify search, not a request
	// field: a body still carrying "timings" is an unknown field.
	for path, body := range map[string]string{
		"/v1/search":       `{"problem":"hamming","queryId":0,"timings":true}`,
		"/v1/search/batch": `{"problem":"hamming","queryIds":[0],"timings":true}`,
	} {
		if code, resp := h.post(path, json.RawMessage(body), nil); code != http.StatusBadRequest || !strings.Contains(resp, `unknown field \"timings\"`) {
			t.Fatalf("%s with timings: status %d body %s, want 400 naming the field", path, code, resp)
		}
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
// before each, and the loaded entry's Shard hook sleeps 5 ms after
// every shard. A fan-out then takes at least 320 ms whatever the
// filter's speed, far past the 1 ms deadline even on a GOMAXPROCS=1
// runner, where the context's timer has been seen to fire 10–20 ms
// late.
func TestSearchDeadline(t *testing.T) {
	s := New(1, 0)
	h := newHarnessServer(t, s)
	h.load(LoadRequest{Problem: "graph", N: 640, Seed: 9, Shards: 64})
	s.mu.Lock()
	e := s.entries[engine.Graph]
	slow := *e.hooks
	observe := slow.Shard
	slow.Shard = func(i int, d time.Duration, st engine.Stats) {
		observe(i, d, st)
		time.Sleep(5 * time.Millisecond)
	}
	e.hooks = &slow
	s.mu.Unlock()

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

// TestJoinEndpoint: /v1/stats counts joins and their pairs apart from
// searches. That /v1/join answers exactly, limits included, is
// internal/engine's TestExactness, which joins through a replica.
func TestJoinEndpoint(t *testing.T) {
	h := newHarness(t)
	h.load(LoadRequest{Problem: "set", N: 400, Seed: 6, Shards: 3})
	var full, lim JoinResponse
	if code, body := h.post("/v1/join", JoinRequest{Problem: "set"}, &full); code != http.StatusOK || len(full.Pairs) == 0 {
		t.Fatalf("join: status %d, %d pairs, body %s", code, len(full.Pairs), body)
	}
	if code, body := h.post("/v1/join", JoinRequest{Problem: "set", Limit: 1}, &lim); code != http.StatusOK {
		t.Fatalf("limited join: status %d body %s", code, body)
	}
	var st StatsResponse
	h.get("/v1/stats", &st)
	ps := st.Problems["set"]
	if ps.Joins != 2 || ps.JoinPairs != int64(len(full.Pairs)+len(lim.Pairs)) || ps.Queries != 0 {
		t.Fatalf("joins %d, joinPairs %d, queries %d; want 2, %d, 0", ps.Joins, ps.JoinPairs, ps.Queries, len(full.Pairs)+len(lim.Pairs))
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
	if code, body := h.post("/v1/join", json.RawMessage(`{"problem":"set","timings":true}`), nil); code != http.StatusBadRequest || !strings.Contains(body, `unknown field \"timings\"`) {
		t.Fatalf("join with timings: status %d body %s, want 400 naming the field", code, body)
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

// TestLoadSingleObject: a one-object load answers 200 for every
// problem, so no dataset generator may fail at n = 1.
func TestLoadSingleObject(t *testing.T) {
	h := newHarness(t)
	for _, p := range []string{"hamming", "set", "string", "graph"} {
		if resp := h.load(LoadRequest{Problem: p, N: 1}); resp.N != 1 {
			t.Fatalf("%s: loaded n=%d, want 1", p, resp.N)
		}
	}
}
