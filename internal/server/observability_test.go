package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a slow-query sink safe for the handler goroutines
// httptest runs.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestReadiness: healthz is always 200 but reports readiness; readyz
// flips 503 → 200 when the first index loads.
func TestReadiness(t *testing.T) {
	h := newHarness(t)

	var hr HealthResponse
	if code := h.get("/v1/healthz", &hr); code != http.StatusOK {
		t.Fatalf("healthz before load: status %d, want 200 (liveness)", code)
	}
	if hr.Ready || hr.Indexes != 0 {
		t.Fatalf("healthz before load: %+v, want ready=false indexes=0", hr)
	}
	if code := h.get("/v1/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before load: status %d, want 503", code)
	}

	h.load(LoadRequest{Problem: "hamming", N: 200})

	if code := h.get("/v1/healthz", &hr); code != http.StatusOK || !hr.Ready || hr.Indexes != 1 {
		t.Fatalf("healthz after load: status %d payload %+v, want 200 ready=true indexes=1", code, hr)
	}
	if code := h.get("/v1/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz after load: status %d, want 200", code)
	}
}

// TestHealthConsistentDuringLoad polls /v1/healthz on fresh servers
// while their loads install: every answer must be one view of the
// server, its corpora one per counted index and ready exactly when
// an index is counted.
func TestHealthConsistentDuringLoad(t *testing.T) {
	for round := 0; round < 100; round++ {
		s := New(0, 0)
		h := s.Handler()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for _, p := range []string{"hamming", "set", "string"} {
				serve(h, "/v1/load", []byte(`{"problem":"`+p+`","n":40}`))
			}
		}()
		for polling := true; polling; {
			select {
			case <-done:
				polling = false
			default:
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
			var hr HealthResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
				t.Fatal(err)
			}
			if len(hr.Corpora) != hr.Indexes || hr.Ready != (hr.Indexes > 0) {
				t.Fatalf("round %d: inconsistent health %s", round, rec.Body.String())
			}
		}
	}
}

// TestRequestID: a generated id is echoed in the response header; an
// inbound X-Request-ID is honored and lands in error payloads; a
// malformed inbound id is replaced.
func TestRequestID(t *testing.T) {
	h := newHarness(t)

	resp, err := http.Get(h.srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if rid := resp.Header.Get("X-Request-ID"); rid == "" {
		t.Fatal("no generated X-Request-ID on response")
	}

	req, _ := http.NewRequest("POST", h.srv.URL+"/v1/search", strings.NewReader(`{"problem":"hamming","queryId":0}`))
	req.Header.Set("X-Request-ID", "trace-abc-123")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "trace-abc-123" {
		t.Fatalf("inbound request id not honored: header %q", got)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("search without index: status %d, want 404", resp.StatusCode)
	}
	var payload map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if payload["requestId"] != "trace-abc-123" {
		t.Fatalf("error payload %v missing inbound requestId", payload)
	}

	// Go's client refuses to send control bytes, so exercise the
	// validation directly: a malformed or oversized inbound id must be
	// replaced, never echoed or truncated.
	for _, bad := range []string{"bad\x01id", strings.Repeat("x", maxRequestIDLen+1)} {
		r, _ := http.NewRequest("GET", "/v1/healthz", nil)
		r.Header = http.Header{requestIDHeader: []string{bad}}
		if got := inboundRequestID(r); got == bad || got == "" {
			t.Fatalf("malformed inbound id %q resolved to %q, want a fresh id", bad, got)
		}
	}
}

// TestMetricsEndpoint: after serving real traffic, /metrics exposes
// the per-problem families the scrape contract promises.
func TestMetricsEndpoint(t *testing.T) {
	h := newHarness(t)
	h.load(LoadRequest{Problem: "hamming", N: 300, Shards: 2})
	h.search(SearchRequest{Problem: "hamming", QueryID: intp(0)})
	h.search(SearchRequest{Problem: "hamming", QueryID: intp(1)})

	resp, err := http.Get(h.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`pigeonring_searches_total{problem="hamming"} 2`,
		`pigeonring_candidates_total{problem="hamming"}`,
		`pigeonring_results_total{problem="hamming"}`,
		`pigeonring_search_seconds_bucket{problem="hamming",le="+Inf"} 2`,
		`pigeonring_search_seconds_count{problem="hamming"} 2`,
		`pigeonring_shard_seconds_count{problem="hamming"} 4`,
		`pigeonring_index_objects{problem="hamming"} 300`,
		`pigeonring_index_shards{problem="hamming"} 2`,
		`pigeonring_indexes_loaded 1`,
		`pigeonring_http_requests_total{code="200",endpoint="search"} 2`,
		`pigeonring_http_request_seconds_count{endpoint="search"} 2`,
		`pigeonring_http_inflight_requests 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestMetricsDisabled: DisableMetrics unmounts the endpoint but the
// registry keeps recording for /v1/stats.
func TestMetricsDisabled(t *testing.T) {
	h := newHarnessServer(t, NewFromConfig(Config{DisableMetrics: true}))
	h.load(LoadRequest{Problem: "hamming", N: 200})
	h.search(SearchRequest{Problem: "hamming", QueryID: intp(0)})

	if code := h.get("/metrics", nil); code != http.StatusNotFound {
		t.Fatalf("/metrics with DisableMetrics: status %d, want 404", code)
	}
	var stats StatsResponse
	if code := h.get("/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("/v1/stats status %d", code)
	}
	if got := stats.Problems["hamming"].Queries; got != 1 {
		t.Fatalf("stats queries = %d, want 1 (registry should record regardless)", got)
	}
}

// TestStatsSurvivesReload: counters are monotonic across /v1/load — a
// reload swaps the index but never resets the registry.
func TestStatsSurvivesReload(t *testing.T) {
	h := newHarness(t)
	h.load(LoadRequest{Problem: "hamming", N: 200})
	h.search(SearchRequest{Problem: "hamming", QueryID: intp(0)})
	h.load(LoadRequest{Problem: "hamming", N: 400})
	h.search(SearchRequest{Problem: "hamming", QueryID: intp(1)})

	var stats StatsResponse
	if code := h.get("/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("/v1/stats status %d", code)
	}
	ps := stats.Problems["hamming"]
	if ps.Queries != 2 {
		t.Fatalf("queries after reload = %d, want 2 (monotonic)", ps.Queries)
	}
	if ps.N != 400 {
		t.Fatalf("n after reload = %d, want 400 (index state follows the reload)", ps.N)
	}
}

// TestSlowQueryLog: a threshold of one nanosecond logs every search as
// a JSON line carrying the request id, τ and the wall time.
func TestSlowQueryLog(t *testing.T) {
	var sink syncBuffer
	h := newHarnessServer(t, NewFromConfig(Config{
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryWriter:    &sink,
	}))
	h.load(LoadRequest{Problem: "hamming", N: 200})

	req, _ := http.NewRequest("POST", h.srv.URL+"/v1/search", strings.NewReader(`{"problem":"hamming","queryId":3}`))
	req.Header.Set("X-Request-ID", "slow-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status %d", resp.StatusCode)
	}

	sc := bufio.NewScanner(strings.NewReader(sink.String()))
	var lines []SlowQuery
	for sc.Scan() {
		var q SlowQuery
		if err := json.Unmarshal(sc.Bytes(), &q); err != nil {
			t.Fatalf("slow-query line %q: %v", sc.Text(), err)
		}
		lines = append(lines, q)
	}
	if len(lines) != 1 {
		t.Fatalf("slow-query lines = %d, want 1:\n%s", len(lines), sink.String())
	}
	q := lines[0]
	if q.RequestID != "slow-1" || q.Endpoint != "search" || q.Problem != "hamming" {
		t.Fatalf("slow-query line %+v, want requestId=slow-1 endpoint=search problem=hamming", q)
	}
	if q.WallMS <= 0 || q.Tau != 24 {
		t.Fatalf("slow-query line %+v, want wallMs > 0 and the index default τ=24", q)
	}
}

// TestSlowQueryLogDisabled: the zero config writes nothing.
func TestSlowQueryLogDisabled(t *testing.T) {
	var sink syncBuffer
	h := newHarnessServer(t, NewFromConfig(Config{SlowQueryWriter: &sink}))
	h.load(LoadRequest{Problem: "hamming", N: 200})
	h.search(SearchRequest{Problem: "hamming", QueryID: intp(0)})
	if got := sink.String(); got != "" {
		t.Fatalf("slow-query log written with no threshold: %q", got)
	}
}

func intp(v int) *int { return &v }
