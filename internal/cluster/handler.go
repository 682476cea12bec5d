package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/parallel"
	"repro/internal/server"
)

// The coordinator's outward HTTP surface: the same /v1/* endpoints a
// single daemon serves, so clients (and the CLI, and the smoke
// scripts) need no cluster awareness. Joins scatter as tiles; searches,
// batches and single tiles forward whole to one replica with the same
// failover a tile gets; load and snapshot broadcast to every
// replica — a cluster where only some replicas loaded the new corpus
// must not exist, so a partial broadcast is an error.

// statusClientClosedRequest mirrors the daemon's 499 for abandoned
// requests.
const statusClientClosedRequest = 499

// Handler returns the coordinator's HTTP routes.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/load", c.handleBroadcast)
	mux.HandleFunc("POST /v1/snapshot", c.handleBroadcast)
	mux.HandleFunc("POST /v1/search", c.handleSearch)
	mux.HandleFunc("POST /v1/search/batch", c.handleForwardPOST)
	mux.HandleFunc("POST /v1/join", c.handleJoin)
	mux.HandleFunc("POST /v1/join/tile", c.handleForwardPOST)
	mux.HandleFunc("GET /v1/indexes", c.handleForwardGET)
	mux.HandleFunc("GET /v1/stats", c.handleForwardGET)
	mux.HandleFunc("GET /v1/healthz", c.handleHealth)
	mux.HandleFunc("GET /v1/readyz", c.handleHealth)
	if !c.noMetrics {
		mux.Handle("GET /metrics", c.met.reg.Handler())
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, map[string]string{
		"error": fmt.Sprintf(format, args...),
		"code":  code,
	})
}

// writeClusterError maps a scatter/forward failure onto the outward
// status vocabulary a single daemon uses, plus the cluster's own
// failure modes. A replica's non-retryable refusal passes through
// verbatim — the replica already speaks the API's error shapes.
func writeClusterError(w http.ResponseWriter, r *http.Request, err error) {
	var re *replicaError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeErr(w, http.StatusGatewayTimeout, "deadline_exceeded", "request abandoned: %v", err)
	case errors.Is(err, context.Canceled):
		writeErr(w, statusClientClosedRequest, "cancelled", "request abandoned: %v", err)
	case errors.As(err, &re):
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(re.status)
		io.WriteString(w, re.body)
	case errors.Is(err, ErrNoReplicasUp):
		writeErr(w, http.StatusServiceUnavailable, "no_replicas_up", "%v", err)
	case errors.Is(err, ErrNotLoaded):
		writeErr(w, http.StatusNotFound, "not_found", "%v", err)
	default:
		var ie *IdentityError
		if errors.As(err, &ie) {
			writeErr(w, http.StatusBadGateway, "corpus_identity", "%v", err)
			return
		}
		writeErr(w, http.StatusBadGateway, "cluster_error", "%v", err)
	}
}

// readBody slurps a request body under the same 4 MiB cap the daemon
// enforces, so the coordinator can replay it to several replicas.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 4<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "invalid_argument", "reading request body: %v", err)
		return nil, false
	}
	return body, true
}

// decodeBody parses a buffered request body as the daemon does: an
// unknown field — a misspelled option — is a 400, never silently
// dropped.
func decodeBody(w http.ResponseWriter, body []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid_argument", "invalid request body: %v", err)
		return false
	}
	return true
}

// handleBroadcast replays a load or snapshot request on every
// configured replica — including ones marked down, because a load
// succeeding on a recovered replica is exactly how it rejoins with
// the right corpus — then re-verifies corpus identity. All replicas
// must succeed: a partially loaded cluster would fail the identity
// check on every subsequent request anyway, so the broadcast reports
// the failure immediately instead.
func (c *Coordinator) handleBroadcast(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	results := make([]json.RawMessage, len(c.replicas))
	errs := make([]error, len(c.replicas))
	parallel.ForEach(len(c.replicas), len(c.replicas), func(i int) {
		rep := c.replicas[i]
		rep.dispatched.Inc()
		rctx, cancel := context.WithTimeout(r.Context(), c.timeout)
		defer cancel()
		errs[i] = c.do(rctx, rep, http.MethodPost, r.URL.Path, json.RawMessage(body), &results[i])
		rep.setUp(errs[i] == nil)
	})
	for i, err := range errs {
		if err != nil {
			writeClusterError(w, r, fmt.Errorf("broadcast to %s: %w", c.replicas[i].url, err))
			return
		}
	}
	if r.URL.Path == "/v1/load" {
		if err := c.Attach(r.Context()); err != nil {
			writeClusterError(w, r, err)
			return
		}
	}
	// Every replica answered equivalently; relay the first answer.
	w.Header().Set("Content-Type", "application/json")
	w.Write(results[0])
}

// forward relays one request body to a single replica with failover
// and writes the replica's answer back.
func (c *Coordinator) forward(w http.ResponseWriter, r *http.Request, body []byte) {
	var out json.RawMessage
	var in any
	if body != nil {
		in = json.RawMessage(body)
	}
	if err := c.withReplica(r.Context(), r.URL.Path, in, &out); err != nil {
		writeClusterError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(out)
}

func (c *Coordinator) handleForwardPOST(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	c.forward(w, r, body)
}

func (c *Coordinator) handleForwardGET(w http.ResponseWriter, r *http.Request) {
	var out json.RawMessage
	rep := c.pick()
	rctx, cancel := context.WithTimeout(r.Context(), c.timeout)
	defer cancel()
	if err := c.getJSON(rctx, rep, r.URL.Path, &out); err != nil {
		writeClusterError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(out)
}

func (c *Coordinator) handleSearch(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req server.SearchRequest
	if !decodeBody(w, body, &req) {
		return
	}
	var out json.RawMessage
	if err := c.search(r.Context(), req, &out); err != nil {
		writeClusterError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(out)
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req server.JoinRequest
	if !decodeBody(w, body, &req) {
		return
	}
	pairs, st, err := c.Join(r.Context(), req)
	if err != nil {
		writeClusterError(w, r, err)
		return
	}
	if pairs == nil {
		pairs = [][2]int64{}
	}
	writeJSON(w, http.StatusOK, server.JoinResponse{Problem: req.Problem, Pairs: pairs, Stats: st})
}

// handleHealth reports the cluster view on /v1/healthz (always 200)
// and /v1/readyz (503 until ready): ready when an attached corpus view
// exists and at least one replica is believed up. The payload shape is
// the daemon's own HealthResponse, so probes need no
// coordinator-specific parsing.
func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := c.health()
	status := http.StatusOK
	if !h.Ready && r.URL.Path == "/v1/readyz" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (c *Coordinator) health() server.HealthResponse {
	c.mu.RLock()
	attached := c.corpora != nil
	corpora := make(map[string]string, len(c.corpora))
	for p, info := range c.corpora {
		corpora[p] = info.SnapshotHash
	}
	c.mu.RUnlock()
	anyUp := false
	for _, rep := range c.replicas {
		anyUp = anyUp || rep.up.Load()
	}
	if len(corpora) == 0 {
		corpora = nil
	}
	return server.HealthResponse{
		Status:  "ok",
		Ready:   attached && anyUp && len(corpora) > 0,
		Indexes: len(corpora),
		Corpora: corpora,
	}
}
