package server

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestSearchTopK: a top-k answer has its own shape, with no "ids"
// field, and its rungs reach the top-k telemetry. That the ranked
// results are exact is internal/engine's TestExactness, whose
// coordinator forwards top-k searches to a replica.
func TestSearchTopK(t *testing.T) {
	h := newHarness(t)
	h.load(LoadRequest{Problem: "hamming", N: 600, Shards: 3})

	qid := 7
	var resp TopKResponse
	code, body := h.post("/v1/search", SearchRequest{Problem: "hamming", QueryID: &qid, K: 5}, &resp)
	if code != http.StatusOK || len(resp.Results) != 5 {
		t.Fatalf("top-k search: status %d, %d results, body %s", code, len(resp.Results), body)
	}
	if strings.Contains(body, `"ids"`) {
		t.Fatalf("top-k response carries an ids field: %s", body)
	}

	// Telemetry: the ladder's rungs show up in the per-rung counter.
	var metrics string
	{
		resp, err := http.Get(h.srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		metrics = string(raw)
	}
	if !strings.Contains(metrics, `pigeonring_topk_rungs_total{problem="hamming"}`) {
		t.Fatalf("metrics exposition lacks pigeonring_topk_rungs_total:\n%s", metrics)
	}
	if !strings.Contains(metrics, `pigeonring_topk_rungs_per_query_count{problem="hamming"} 1`) {
		t.Fatalf("metrics exposition lacks the rungs-per-query observation:\n%s", metrics)
	}
}

// TestSearchTopKValidation pins the 400 {"code":"invalid_argument"}
// contract for conflicting or out-of-range k requests.
func TestSearchTopKValidation(t *testing.T) {
	h := newHarnessServer(t, NewFromConfig(Config{MaxK: 10}))
	h.load(LoadRequest{Problem: "hamming", N: 200})
	qid := 0
	for name, req := range map[string]SearchRequest{
		"negative k":   {Problem: "hamming", QueryID: &qid, K: -1},
		"k and limit":  {Problem: "hamming", QueryID: &qid, K: 3, Limit: 5},
		"k skipVerify": {Problem: "hamming", QueryID: &qid, K: 3, SkipVerify: true},
		"k over MaxK":  {Problem: "hamming", QueryID: &qid, K: 11},
	} {
		code, body := h.post("/v1/search", req, nil)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d body %s, want 400", name, code, body)
		}
		if !strings.Contains(body, `"code":"invalid_argument"`) {
			t.Fatalf("%s: body %s lacks code invalid_argument", name, body)
		}
	}
	// Validation runs before index lookup, so a conflicted request
	// against an unloaded problem still answers invalid_argument.
	code, body := h.post("/v1/search", SearchRequest{Problem: "graph", QueryID: &qid, K: 2, Limit: 1}, nil)
	if code != http.StatusBadRequest || !strings.Contains(body, "invalid_argument") {
		t.Fatalf("unloaded problem: status %d body %s", code, body)
	}
	// A legal k within MaxK works.
	var resp TopKResponse
	if code, body := h.post("/v1/search", SearchRequest{Problem: "hamming", QueryID: &qid, K: 10}, &resp); code != http.StatusOK {
		t.Fatalf("k=10: status %d body %s", code, body)
	}
	if len(resp.Results) != 10 {
		t.Fatalf("k=10 returned %d results", len(resp.Results))
	}
}

// TestSearchBatchTopK exercises the "k" mode of /v1/search/batch and
// its agreement with single top-k searches.
func TestSearchBatchTopK(t *testing.T) {
	h := newHarness(t)
	h.load(LoadRequest{Problem: "string", N: 500, Shards: 2})

	ids := []int{3, 11, 42}
	var batch BatchResponse
	code, body := h.post("/v1/search/batch", BatchRequest{Problem: "string", QueryIDs: ids, K: 4}, &batch)
	if code != http.StatusOK {
		t.Fatalf("batch: status %d body %s", code, body)
	}
	if len(batch.Results) != len(ids) {
		t.Fatalf("batch returned %d items for %d queries", len(batch.Results), len(ids))
	}
	for i, item := range batch.Results {
		if item.Error != "" {
			t.Fatalf("item %d: %s", i, item.Error)
		}
		if len(item.IDs) != 0 {
			t.Fatalf("item %d: top-k batch filled ids: %v", i, item.IDs)
		}
		var single TopKResponse
		qid := ids[i]
		if code, body := h.post("/v1/search", SearchRequest{Problem: "string", QueryID: &qid, K: 4}, &single); code != http.StatusOK {
			t.Fatalf("single k search: status %d body %s", code, body)
		}
		if len(item.Results) != len(single.Results) {
			t.Fatalf("item %d: batch %d results, single %d", i, len(item.Results), len(single.Results))
		}
		for j := range item.Results {
			if item.Results[j] != single.Results[j] {
				t.Fatalf("item %d result %d: batch %+v != single %+v", i, j, item.Results[j], single.Results[j])
			}
		}
	}

	var errResp struct {
		Code string `json:"code"`
	}
	code, body = h.post("/v1/search/batch", BatchRequest{Problem: "string", QueryIDs: ids, K: 2, Limit: 3}, &errResp)
	if code != http.StatusBadRequest || !strings.Contains(body, "invalid_argument") {
		t.Fatalf("batch k+limit: status %d body %s", code, body)
	}
}

// TestSearchTopKStatsCounted pins that top-k searches count into the
// same searches/results serving counters threshold searches do.
func TestSearchTopKStatsCounted(t *testing.T) {
	h := newHarness(t)
	h.load(LoadRequest{Problem: "set", N: 400})
	qid := 5
	var resp TopKResponse
	if code, body := h.post("/v1/search", SearchRequest{Problem: "set", QueryID: &qid, K: 3}, &resp); code != http.StatusOK {
		t.Fatalf("set top-k: status %d body %s", code, body)
	}
	if len(resp.Results) == 0 || resp.Results[0].ID != int64(qid) {
		t.Fatalf("set top-k results %+v, want the query object first", resp.Results)
	}
	// Jaccard distance of the query to itself is 0.
	if resp.Results[0].Distance != 0 {
		t.Fatalf("self distance %v, want 0", resp.Results[0].Distance)
	}
	var stats StatsResponse
	if code := h.get("/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	ps := stats.Problems["set"]
	if ps.Queries != 1 || ps.Results != int64(len(resp.Results)) {
		t.Fatalf("stats %+v, want 1 query / %d results", ps, len(resp.Results))
	}
}
