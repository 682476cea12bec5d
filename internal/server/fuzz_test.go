package server

import (
	"bytes"
	"cmp"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// FuzzSearchRequest posts arbitrary bytes to /v1/search and
// /v1/search/batch on a server holding tiny indexes of all four
// problems. Request bodies are untrusted input: whatever arrives, the
// server must not panic or answer 5xx — apart from the 504 a client
// earns by asking for a deadline shorter than its search — and every
// 200 must decode into its response type with ids in ascending order.
func FuzzSearchRequest(f *testing.F) {
	s := New(1, 0)
	h := s.Handler()
	for _, load := range []string{
		`{"problem":"hamming","n":50,"shards":2}`,
		`{"problem":"set","n":50,"shards":2}`,
		`{"problem":"string","n":50}`,
		`{"problem":"graph","n":30,"shards":2}`,
	} {
		if code, body := serve(h, "/v1/load", []byte(load)); code != http.StatusOK {
			f.Fatalf("load %s: status %d body %s", load, code, body)
		}
	}

	// Seeds: the bodies the server and cluster tests post.
	vec := dataset.GIST(50, 42)[7].String()
	str := dataset.IMDB(50, 42)[9]
	g := dataset.AIDS(30, 42)[4]
	spec := GraphSpec{N: g.N()}
	for v := 0; v < g.N(); v++ {
		spec.VertexLabels = append(spec.VertexLabels, g.VertexLabel(v))
	}
	for _, e := range g.Edges() {
		spec.Edges = append(spec.Edges, [3]int{e.U, e.V, int(e.Label)})
	}
	qid, tau := 3, 30.0
	for _, req := range []any{
		SearchRequest{Problem: "hamming", QueryID: &qid},
		SearchRequest{Problem: "set", QueryID: &qid, Limit: 1},
		SearchRequest{Problem: "string", QueryID: &qid, L: 2},
		SearchRequest{Problem: "graph", QueryID: &qid, SkipVerify: true, L: 1},
		SearchRequest{Problem: "hamming", Vector: vec, Tau: &tau, K: 3},
		SearchRequest{Problem: "hamming", Vector: "0101"},
		SearchRequest{Problem: "set", Set: dataset.DBLP(50, 42)[11]},
		SearchRequest{Problem: "string", String: &str, K: 2},
		SearchRequest{Problem: "graph", Graph: &spec, TimeoutMS: 50},
		SearchRequest{Problem: "hamming", QueryID: &qid, CorpusHash: "feedfacefeedface"},
		SearchRequest{Problem: "hamming", QueryID: &qid, K: 3, Limit: 1},
		BatchRequest{Problem: "hamming", QueryIDs: []int{3, 49, 12, 7}},
		BatchRequest{Problem: "graph", QueryIDs: []int{0, 1}, K: 2},
		BatchRequest{Problem: "set", QueryIDs: []int{50}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(false, body)
		f.Add(true, body)
	}
	f.Add(false, []byte(`{"problem":"hamming","queryId":3,"limt":1}`))
	f.Add(true, []byte(`{"problem":"hamming","queryIds":[1,2,3],"workers":2}`))
	f.Add(false, []byte(`{"problem":"hamming","queryId":-1,"timeout_ms":-5}`))

	f.Fuzz(func(t *testing.T, batch bool, body []byte) {
		path := "/v1/search"
		if batch {
			path = "/v1/search/batch"
		}
		code, resp := serve(h, path, body)
		switch {
		case code == http.StatusGatewayTimeout && strings.Contains(resp, `"deadline_exceeded"`):
			return
		case code >= 500:
			t.Fatalf("%s %q: status %d body %s", path, body, code, resp)
		case code != http.StatusOK:
			return
		}
		if batch {
			var br BatchResponse
			strictDecode(t, resp, &br)
			for _, item := range br.Results {
				ascending(t, resp, item.IDs, item.Results)
			}
			return
		}
		var sr SearchResponse
		if strictUnmarshal(resp, &sr) == nil {
			ascending(t, resp, sr.IDs, nil)
			return
		}
		var tr TopKResponse
		strictDecode(t, resp, &tr)
		ascending(t, resp, nil, tr.Results)
	})
}

// FuzzLoadRequest posts arbitrary bytes to /v1/load. A load body is
// untrusted input like a search body: whatever arrives, the server
// must not panic or answer 5xx. Bodies that decode to more than 64
// objects (n = 0 selects the 5000-object default) or more than 8
// shards are skipped, so each input builds in milliseconds. The
// server's snapshot directory holds one small hamming snapshot, so
// snapshot loads reach the file-opening path.
func FuzzLoadRequest(f *testing.F) {
	h := NewFromConfig(Config{Workers: 1, SnapshotDir: f.TempDir()}).Handler()
	// In order: the snapshot writes the index the load built.
	for _, req := range [][2]string{
		{"/v1/load", `{"problem":"hamming","n":5}`},
		{"/v1/snapshot", `{"problem":"hamming"}`},
	} {
		if code, resp := serve(h, req[0], []byte(req[1])); code != http.StatusOK {
			f.Fatalf("%s %s: status %d body %s", req[0], req[1], code, resp)
		}
	}
	for _, p := range []string{"hamming", "set", "string", "graph"} {
		f.Add([]byte(`{"problem":"` + p + `","n":1}`))
	}
	f.Add([]byte(`{"problem":"hamming","dataset":"sift","n":5,"shards":2,"m":4,"tau":0}`))
	f.Add([]byte(`{"problem":"set","dataset":"enron","n":9,"shards":-1,"m":2,"tau":0.5}`))
	f.Add([]byte(`{"problem":"string","dataset":"pubmed","n":3,"kappa":1,"tau":3}`))
	f.Add([]byte(`{"problem":"graph","dataset":"protein","n":7,"shards":8,"tau":1}`))
	f.Add([]byte(`{"problem":"hamming","snapshot":"hamming.snap"}`))
	f.Add([]byte(`{"snapshot":"../etc/passwd","n":3}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req LoadRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil && req.Snapshot == "" &&
			(req.N == 0 || req.N > 64 || req.Shards > 8) {
			t.Skip()
		}
		if code, resp := serve(h, "/v1/load", body); code >= 500 {
			t.Fatalf("%q: status %d body %s", body, code, resp)
		}
	})
}

// serve runs one POST through the handler in-process.
func serve(h http.Handler, path string, body []byte) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.String()
}

func strictUnmarshal(raw string, v any) error {
	dec := json.NewDecoder(strings.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func strictDecode(t *testing.T, raw string, v any) {
	t.Helper()
	if err := strictUnmarshal(raw, v); err != nil {
		t.Fatalf("200 body %s does not decode into %T: %v", raw, v, err)
	}
}

// ascending checks a threshold answer's ids strictly ascend and a
// top-k answer is ordered by (distance, id).
func ascending(t *testing.T, raw string, ids []int64, res []engine.Result) {
	t.Helper()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("ids not strictly ascending in %s", raw)
		}
	}
	if !slices.IsSortedFunc(res, func(a, b engine.Result) int {
		return cmp.Or(cmp.Compare(a.Distance, b.Distance), cmp.Compare(a.ID, b.ID))
	}) {
		t.Fatalf("top-k results not ordered by (distance, id) in %s", raw)
	}
}
