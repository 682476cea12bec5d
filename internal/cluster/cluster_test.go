package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// The cluster tests run the real daemon handler behind httptest
// replicas — the same code paths a deployed replica serves — and
// check the coordinator's one non-negotiable property: whatever the
// replica count and whatever fails mid-flight, scattered output is
// identical to a single node's.

// replicaSet boots n real daemons and loads the same corpus into each.
type replicaSet struct {
	t    *testing.T
	srvs []*httptest.Server
	urls []string
}

func newReplicaSet(t *testing.T, n int, load server.LoadRequest) *replicaSet {
	t.Helper()
	rs := &replicaSet{t: t}
	for i := 0; i < n; i++ {
		ts := httptest.NewServer(server.New(0, 0).Handler())
		t.Cleanup(ts.Close)
		rs.srvs = append(rs.srvs, ts)
		rs.urls = append(rs.urls, ts.URL)
		postJSON(t, ts.URL+"/v1/load", load, nil)
	}
	return rs
}

func postJSON(t *testing.T, url string, in, out any) int {
	t.Helper()
	buf, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// fastConfig keeps test retries quick.
func fastConfig(urls []string) Config {
	return Config{
		Replicas:       urls,
		Timeout:        10 * time.Second,
		RetryBaseDelay: time.Millisecond,
	}
}

func newCoordinator(t *testing.T, urls []string) *Coordinator {
	t.Helper()
	c, err := New(fastConfig(urls))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// singleJoin answers the reference join from one replica's own
// /v1/join — the single-node output the scatter must reproduce.
func singleJoin(t *testing.T, url string, req server.JoinRequest) server.JoinResponse {
	t.Helper()
	var resp server.JoinResponse
	if code := postJSON(t, url+"/v1/join", req, &resp); code != http.StatusOK {
		t.Fatalf("single-node join: status %d", code)
	}
	return resp
}

var testLoad = server.LoadRequest{Problem: "hamming", N: 300, Shards: 2}

func TestScatterSearchMatchesSingleNode(t *testing.T) {
	rs := newReplicaSet(t, 3, testLoad)
	c := newCoordinator(t, rs.urls)
	ctx := context.Background()
	if err := c.Attach(ctx); err != nil {
		t.Fatal(err)
	}
	for qid := 0; qid < 300; qid += 37 {
		id := qid
		var want server.SearchResponse
		if code := postJSON(t, rs.urls[0]+"/v1/search", server.SearchRequest{Problem: "hamming", QueryID: &id}, &want); code != http.StatusOK {
			t.Fatalf("single-node search: status %d", code)
		}
		got, st, err := c.Search(ctx, server.SearchRequest{Problem: "hamming", QueryID: &id})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want.IDs) {
			t.Fatalf("query %d: scatter %v != single-node %v", qid, got, want.IDs)
		}
		if !slices.IsSorted(got) {
			t.Fatalf("query %d: merged stream not ascending: %v", qid, got)
		}
		if st.Results != len(got) {
			t.Fatalf("query %d: stats Results=%d for %d ids", qid, st.Results, len(got))
		}
	}
	// Limit trims the merged stream to its ascending prefix.
	id := 3
	full, _, err := c.Search(ctx, server.SearchRequest{Problem: "hamming", QueryID: &id})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) > 1 {
		lim, st, err := c.Search(ctx, server.SearchRequest{Problem: "hamming", QueryID: &id, Limit: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(lim, full[:1]) || !st.Limited {
			t.Fatalf("limit=1: got %v (Limited=%v), want %v", lim, st.Limited, full[:1])
		}
	}
}

func TestScatterJoinMatchesSingleNode(t *testing.T) {
	rs := newReplicaSet(t, 3, testLoad)
	c := newCoordinator(t, rs.urls)
	ctx := context.Background()
	want := singleJoin(t, rs.urls[0], server.JoinRequest{Problem: "hamming"})
	if len(want.Pairs) == 0 {
		t.Fatal("reference join is empty; corpus too sparse for the test")
	}
	for _, tileSize := range []int{0, 40} {
		got, st, err := c.Join(ctx, server.JoinRequest{Problem: "hamming", TileSize: tileSize})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want.Pairs) {
			t.Fatalf("tileSize=%d: scatter join %d pairs != single-node %d pairs", tileSize, len(got), len(want.Pairs))
		}
		if st.Pairs != len(got) || st.JoinTiles == 0 {
			t.Fatalf("tileSize=%d: implausible stats %+v", tileSize, st)
		}
	}
}

// TestJoinSurvivesReplicaDeath kills one replica outright: every tile
// it would have served fails over, the output stays identical, and
// the retry counter proves the failover path actually ran.
func TestJoinSurvivesReplicaDeath(t *testing.T) {
	rs := newReplicaSet(t, 3, testLoad)
	c := newCoordinator(t, rs.urls)
	ctx := context.Background()
	if err := c.Attach(ctx); err != nil {
		t.Fatal(err)
	}
	want := singleJoin(t, rs.urls[0], server.JoinRequest{Problem: "hamming"})

	// The coordinator still believes the replica is up from attach, so
	// its first dispatches there fail mid-join and must be retried.
	rs.srvs[1].Close()
	got, _, err := c.Join(ctx, server.JoinRequest{Problem: "hamming", TileSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want.Pairs) {
		t.Fatalf("join with a dead replica: %d pairs != single-node %d pairs", len(got), len(want.Pairs))
	}
	if c.met.tileRetries.Value() == 0 {
		t.Fatal("replica died mid-join but the retry counter never moved")
	}
	if c.replicas[1].up.Load() {
		t.Fatal("dead replica still marked up after failed dispatches")
	}
}

// TestJoinSurvives5xx is the same failover via the other trigger: a
// replica that answers 500 on every tile.
func TestJoinSurvives5xx(t *testing.T) {
	rs := newReplicaSet(t, 2, testLoad)
	want := singleJoin(t, rs.urls[0], server.JoinRequest{Problem: "hamming"})

	inner := rs.srvs[1].Config.Handler
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/join/tile" {
			http.Error(w, `{"error":"synthetic failure"}`, http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	c := newCoordinator(t, []string{rs.urls[0], flaky.URL})
	got, _, err := c.Join(context.Background(), server.JoinRequest{Problem: "hamming", TileSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want.Pairs) {
		t.Fatalf("join with a 5xx replica: %d pairs != single-node %d pairs", len(got), len(want.Pairs))
	}
	if c.met.tileRetries.Value() == 0 {
		t.Fatal("5xx replies never incremented the retry counter")
	}
}

func TestRetryExhaustionAllReplicasDown(t *testing.T) {
	rs := newReplicaSet(t, 2, testLoad)
	c := newCoordinator(t, rs.urls)
	ctx := context.Background()
	if err := c.Attach(ctx); err != nil {
		t.Fatal(err)
	}
	for _, s := range rs.srvs {
		s.Close()
	}
	_, _, err := c.Join(ctx, server.JoinRequest{Problem: "hamming", TileSize: 40})
	if !errors.Is(err, ErrNoReplicasUp) {
		t.Fatalf("all replicas down: err = %v, want ErrNoReplicasUp", err)
	}
	_, _, err = c.Search(ctx, server.SearchRequest{Problem: "hamming"})
	if !errors.Is(err, ErrNoReplicasUp) {
		t.Fatalf("all replicas down: search err = %v, want ErrNoReplicasUp", err)
	}
}

// TestAttachRejectsCorpusMismatch: replicas holding different corpora
// (here: different seeds) must be refused at attach — scattering over
// them would merge answers computed on different data.
func TestAttachRejectsCorpusMismatch(t *testing.T) {
	a := newReplicaSet(t, 1, testLoad)
	bLoad := testLoad
	bLoad.Seed = 7
	b := newReplicaSet(t, 1, bLoad)

	c := newCoordinator(t, []string{a.urls[0], b.urls[0]})
	err := c.Attach(context.Background())
	var ie *IdentityError
	if !errors.As(err, &ie) {
		t.Fatalf("attach over diverging corpora: err = %v, want IdentityError", err)
	}
	if ie.Problem != "hamming" || !strings.Contains(ie.Detail, "corpus hash") {
		t.Fatalf("IdentityError lacks specifics: %+v", ie)
	}
}

// TestAttachToleratesDownReplica: an unreachable replica is marked
// down at attach, not fatal — it can rejoin via the next broadcast.
func TestAttachToleratesDownReplica(t *testing.T) {
	rs := newReplicaSet(t, 2, testLoad)
	rs.srvs[1].Close()
	c := newCoordinator(t, rs.urls)
	if err := c.Attach(context.Background()); err != nil {
		t.Fatalf("attach with one dead replica: %v", err)
	}
	if c.replicas[1].up.Load() {
		t.Fatal("unreachable replica marked up after attach")
	}
	qid := 0
	ids, _, err := c.Search(context.Background(), server.SearchRequest{Problem: "hamming", QueryID: &qid})
	_ = ids
	if err != nil {
		t.Fatalf("search over the surviving replica: %v", err)
	}
}

// TestCancelMidScatter cancels the caller's context while every
// replica is deliberately stalled; the scatter must return the
// context error promptly instead of waiting out the stall.
func TestCancelMidScatter(t *testing.T) {
	rs := newReplicaSet(t, 1, testLoad)
	inner := rs.srvs[0].Config.Handler
	// stall releases the stalled handlers at cleanup so the httptest
	// server's Close (which waits for in-flight requests) can finish
	// even if a disconnect was never delivered.
	stall := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/search" || r.URL.Path == "/v1/join/tile" {
			select {
			case <-r.Context().Done():
			case <-stall:
			}
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)
	t.Cleanup(func() { close(stall) })

	c := newCoordinator(t, []string{slow.URL})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Join(ctx, server.JoinRequest{Problem: "hamming", TileSize: 40})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled scatter: err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("scatter did not return after cancellation")
	}
}

// TestHandlerEndToEnd drives the coordinator through its outward HTTP
// surface only — load broadcast, health, search, join — the way the
// CI cluster smoke (and a real client) does.
func TestHandlerEndToEnd(t *testing.T) {
	rs := newReplicaSet(t, 3, testLoad)
	c := newCoordinator(t, rs.urls)
	front := httptest.NewServer(c.Handler())
	t.Cleanup(front.Close)

	// Broadcast a fresh load (different seed) through the coordinator;
	// all replicas must converge on the new corpus.
	load := testLoad
	load.Seed = 9
	var lr server.LoadResponse
	if code := postJSON(t, front.URL+"/v1/load", load, &lr); code != http.StatusOK {
		t.Fatalf("broadcast load: status %d", code)
	}
	resp, err := http.Get(front.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hr server.HealthResponse
	json.NewDecoder(resp.Body).Decode(&hr)
	resp.Body.Close()
	if !hr.Ready || hr.Corpora["hamming"] == "" {
		t.Fatalf("coordinator not ready after broadcast load: %+v", hr)
	}

	var want server.JoinResponse
	postJSON(t, rs.urls[0]+"/v1/join", server.JoinRequest{Problem: "hamming"}, &want)
	var got server.JoinResponse
	if code := postJSON(t, front.URL+"/v1/join", server.JoinRequest{Problem: "hamming", TileSize: 40}, &got); code != http.StatusOK {
		t.Fatalf("coordinator join: status %d", code)
	}
	if !slices.Equal(got.Pairs, want.Pairs) {
		t.Fatalf("coordinator join %d pairs != replica join %d pairs", len(got.Pairs), len(want.Pairs))
	}

	id := 5
	var wantS, gotS server.SearchResponse
	postJSON(t, rs.urls[0]+"/v1/search", server.SearchRequest{Problem: "hamming", QueryID: &id}, &wantS)
	if code := postJSON(t, front.URL+"/v1/search", server.SearchRequest{Problem: "hamming", QueryID: &id}, &gotS); code != http.StatusOK {
		t.Fatalf("coordinator search: status %d", code)
	}
	if !slices.Equal(gotS.IDs, wantS.IDs) {
		t.Fatalf("coordinator search %v != replica search %v", gotS.IDs, wantS.IDs)
	}

	// Top-k forwards to one replica and keeps the TopKResponse shape.
	var tk server.TopKResponse
	if code := postJSON(t, front.URL+"/v1/search", server.SearchRequest{Problem: "hamming", QueryID: &id, K: 3}, &tk); code != http.StatusOK {
		t.Fatalf("coordinator top-k: status %d", code)
	}
	if len(tk.Results) == 0 {
		t.Fatal("forwarded top-k answered no results")
	}
}

// TestHandlerRejectsUnknownFields: a misspelled option is a 400
// invalid_argument from the coordinator exactly as from a daemon,
// never dropped into a full, unlimited answer.
func TestHandlerRejectsUnknownFields(t *testing.T) {
	rs := newReplicaSet(t, 2, testLoad)
	front := httptest.NewServer(newCoordinator(t, rs.urls).Handler())
	t.Cleanup(front.Close)
	for path, body := range map[string]string{
		"/v1/search": `{"problem":"hamming","queryId":3,"limt":1}`,
		"/v1/join":   `{"problem":"hamming","limt":1}`,
	} {
		for _, base := range []string{rs.urls[0], front.URL} {
			resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var eb map[string]string
			json.NewDecoder(resp.Body).Decode(&eb)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(eb["error"], "limt") {
				t.Fatalf("%s%s: status %d body %v, want 400 naming the unknown field", base, path, resp.StatusCode, eb)
			}
			if base == front.URL && eb["code"] != "invalid_argument" {
				t.Fatalf("coordinator %s: code %q, want invalid_argument", path, eb["code"])
			}
		}
	}
}
