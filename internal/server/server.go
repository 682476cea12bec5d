// Package server implements the HTTP/JSON serving layer of the
// pigeonringd query daemon: loading synthetic datasets into sharded
// engine indexes, answering single and batch searches plus all-pairs
// self-joins with tunable τ and chain length, and exposing live
// per-problem statistics.
//
// The API is versioned under /v1:
//
//	POST /v1/load          {"problem":"hamming","n":5000,"shards":4,...}
//	POST /v1/load          {"snapshot":"hamming.snap"} reload from a snapshot file
//	POST /v1/snapshot      {"problem":"hamming","file":"hamming.snap"}
//	POST /v1/search        {"problem":"hamming","queryId":17,"limit":10,"timeout_ms":50,...}
//	POST /v1/search/batch  {"problem":"set","queryIds":[1,2,3],...}
//	POST /v1/join          {"problem":"set","limit":100,"timeout_ms":5000,...}
//	POST /v1/join/tile     {"problem":"set","rowLo":0,"rowHi":64,"colLo":0,"colHi":64}
//	GET  /v1/indexes
//	GET  /v1/stats
//	GET  /v1/healthz       liveness + readiness view {"ready":bool,"indexes":n}
//	GET  /v1/readyz        503 until an index is loaded, then 200
//	GET  /metrics          Prometheus text exposition (Config.DisableMetrics unmounts)
//
// One index is held per problem; loading replaces the previous index
// atomically. Searches are lock-free after entry lookup — engine
// indexes are immutable — so any number of requests may run
// concurrently, each fanning out across the index's shards; a batch
// runs its queries over at most Config.Workers goroutines.
//
// A cluster coordinator serves this same surface over replicas of
// this daemon. It forwards each search whole, stamped with the
// corpus hash it attached to ("corpusHash"; a replica that reloaded
// another corpus answers 409 "corpus_mismatch" and the coordinator
// tries the next replica), and scatters joins as /v1/join/tile
// fragments under the same guard.
//
// Persistence: when Config.SnapshotDir is set, POST /v1/snapshot
// writes a loaded index to a file in that directory (atomically —
// temp file + rename) and POST /v1/load with {"snapshot": "<file>"}
// reloads it without re-running index construction. The reload is a
// zero-downtime pointer swap: the old index keeps serving until the
// new one is fully open, and in-flight searches hold their own entry
// pointer, so no request ever observes a half-loaded index. A load
// whose client disconnects before the swap is discarded (499, like an
// abandoned search) instead of being installed for nobody.
//
// Every search runs under the HTTP request's context: a client that
// disconnects abandons the search mid-fan-out instead of burning
// verification work nobody will read. "timeout_ms" adds a per-request
// deadline on top (bounded by the server's default when one is
// configured); an expired deadline answers 504 with a machine-readable
// {"code":"deadline_exceeded"} payload. "limit" stops a search after
// the first n ascending ids; "k" switches /v1/search and
// /v1/search/batch into top-k mode — the k nearest objects as
// [{id, distance}] pairs ordered by (distance, id) ascending, answered
// by the engine's top-k search (TopKResponse). "k" is mutually
// exclusive with "limit" and "skipVerify"; conflicts are answered 400
// with a machine-readable {"code":"invalid_argument"} payload.
// /v1/join self-joins the loaded dataset — every pair of distinct
// objects within the threshold, ascending by (i, j) — under the same
// context, timeout and limit machinery.
// /v1/stats surfaces cancelled and limited query counts plus join and
// pair totals per problem.
//
// Observability: every request is assigned (or inherits, via
// X-Request-ID) a request id that is echoed in the response header,
// embedded in error payloads and stamped on slow-query log lines.
// The server records its serving statistics in a telemetry.Registry —
// per-problem counters and latency histograms, per-endpoint request
// metrics, per-shard fan-out spread via the engine's Hooks seam — and
// serves the Prometheus text exposition on GET /metrics. /v1/stats
// reads the same registry back as JSON; its counters are monotonic
// over the server's lifetime and survive index reloads. Searches and
// joins slower than Config.SlowQueryThreshold are written to the
// slow-query log as JSON lines (see SlowQuery).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/bitvec"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/setsim"
	"repro/internal/telemetry"
	"repro/internal/tokenset"
)

// Server holds one loaded index per problem plus live serving
// statistics. Create it with New or NewFromConfig and mount Handler on
// an http.Server.
type Server struct {
	workers int
	timeout time.Duration
	started time.Time
	snapDir string
	maxK    int

	met       *serverMetrics
	slow      *slowLog
	noMetrics bool

	mu      sync.RWMutex
	entries map[engine.Problem]*entry
}

// entry binds a loaded index to the name of the dataset it was built
// from, its per-problem metric handles and the engine hooks that feed
// them. queryId resolution replays objects from the index itself.
type entry struct {
	index   engine.Index
	dataset string
	buildMS float64
	// hash is the content address of the loaded corpus: an FNV-64a of
	// the index's snapshot encoding, which is deterministic (section
	// keys are sorted, layouts are canonical), so two daemons report
	// the same hash exactly when they hold byte-identical indexes —
	// same objects, same τ, same shard layout. A cluster coordinator
	// compares these hashes before scattering work; see
	// /v1/healthz "corpora". Empty when the index is not persistable.
	hash string

	// met is the per-problem slice of the server's registry; hooks is
	// the shared (concurrency-safe) tracer wired into every search so
	// sharded fan-outs report per-shard durations.
	met   *problemMetrics
	hooks *engine.Hooks
}

// tau resolves the effective threshold a call ran under: the request
// override when present, the index's build threshold otherwise.
func (e *entry) tau(override *float64) float64 {
	if override != nil {
		return *override
	}
	return e.index.Tau()
}

// Config parameterizes NewFromConfig. The zero value is a working
// default: GOMAXPROCS workers, no default deadline, a private
// registry, /metrics mounted, slow-query log disabled.
type Config struct {
	// Workers caps the per-query shard fan-out and the per-batch query
	// parallelism; ≤ 0 selects GOMAXPROCS.
	Workers int
	// SearchTimeout is the default per-search/join deadline applied
	// when a request carries no timeout_ms; 0 disables it. Requests
	// may shorten it but never lengthen it.
	SearchTimeout time.Duration
	// DisableMetrics leaves GET /metrics unmounted (metrics are still
	// recorded; /v1/stats keeps working).
	DisableMetrics bool
	// SlowQueryThreshold enables the slow-query log: every search,
	// batch item or join whose engine wall clock reaches it is written
	// as a JSON line. 0 disables the log.
	SlowQueryThreshold time.Duration
	// SlowQueryWriter receives the slow-query lines; nil selects
	// os.Stderr. Writes are serialized by the server.
	SlowQueryWriter io.Writer
	// SnapshotDir enables index persistence: POST /v1/snapshot writes
	// container files into this directory and /v1/load accepts
	// {"snapshot": "<file>"} naming a file inside it. Empty disables
	// both (the endpoints answer 501). Clients supply plain file names,
	// never paths — the server refuses separators and "..", so a
	// request cannot escape the directory.
	SnapshotDir string
	// MaxK caps the "k" of top-k searches (the per-search result heap
	// is k entries, so k is an allocation size like the load bounds
	// above); ≤ 0 selects the default of 1024.
	MaxK int
}

// defaultMaxK bounds top-k requests when Config.MaxK is unset.
const defaultMaxK = 1024

// New creates an empty server with default observability: shorthand
// for NewFromConfig(Config{Workers: workers, SearchTimeout: timeout}).
// workers caps the per-query shard fan-out and the per-batch query
// parallelism; ≤ 0 selects GOMAXPROCS. timeout is the default
// per-search deadline applied when a request carries no timeout_ms of
// its own; 0 disables it.
func New(workers int, timeout time.Duration) *Server {
	return NewFromConfig(Config{Workers: workers, SearchTimeout: timeout})
}

// NewFromConfig creates an empty server; see Config for the knobs.
func NewFromConfig(cfg Config) *Server {
	slowW := cfg.SlowQueryWriter
	if slowW == nil {
		slowW = os.Stderr
	}
	maxK := cfg.MaxK
	if maxK <= 0 {
		maxK = defaultMaxK
	}
	return &Server{
		workers:   cfg.Workers,
		timeout:   cfg.SearchTimeout,
		started:   time.Now(),
		snapDir:   cfg.SnapshotDir,
		maxK:      maxK,
		met:       newServerMetrics(telemetry.NewRegistry()),
		slow:      newSlowLog(cfg.SlowQueryThreshold, slowW),
		noMetrics: cfg.DisableMetrics,
		entries:   make(map[engine.Problem]*entry),
	}
}

// Registry returns the registry the server records into.
func (s *Server) Registry() *telemetry.Registry { return s.met.reg }

// Handler returns the server's HTTP routes, wrapped in the
// observability middleware (request ids, in-flight gauge, per-endpoint
// request metrics).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/load", s.handleLoad)
	mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("POST /v1/search", s.handleSearch)
	mux.HandleFunc("POST /v1/search/batch", s.handleSearchBatch)
	mux.HandleFunc("POST /v1/join", s.handleJoin)
	mux.HandleFunc("POST /v1/join/tile", s.handleJoinTile)
	mux.HandleFunc("GET /v1/indexes", s.handleIndexes)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/readyz", s.handleHealth)
	if !s.noMetrics {
		mux.Handle("GET /metrics", s.met.reg.Handler())
	}
	return s.instrument(mux)
}

// readiness reports whether any index is loaded, and how many.
func (s *Server) readiness() (ready bool, indexes int) {
	h := s.health()
	return h.Ready, h.Indexes
}

// HealthResponse is the /v1/healthz and /v1/readyz payload: the
// process is live by virtue of answering at all; Ready says whether
// it can serve searches. An orchestrator's readiness probe should use
// /v1/readyz, which also encodes Ready in the status code (503 until
// the first index loads).
type HealthResponse struct {
	Status  string `json:"status"`
	Ready   bool   `json:"ready"`
	Indexes int    `json:"indexes"`
	// Corpora maps each loaded problem to its corpus hash (see
	// corpusHash) — the identity a cluster coordinator checks before
	// trusting this daemon with scattered work. Omitted while empty.
	Corpora map[string]string `json:"corpora,omitempty"`
}

// health builds the health payload from one locked read, so the
// index count, readiness and corpora never disagree with each other.
func (s *Server) health() HealthResponse {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h := HealthResponse{Status: "ok", Ready: len(s.entries) > 0, Indexes: len(s.entries)}
	if h.Ready {
		h.Corpora = make(map[string]string, len(s.entries))
		for p, e := range s.entries {
			h.Corpora[string(p)] = e.hash
		}
	}
	return h
}

// handleHealth answers /v1/healthz, always 200, and /v1/readyz, 503
// until the first index loads.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	status := http.StatusOK
	if !h.Ready && r.URL.Path == "/v1/readyz" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// errBody stamps the request id into an error payload so a client can
// quote the id that also appears in the server's logs.
func errBody(r *http.Request, fields map[string]string) map[string]string {
	if rid := requestID(r.Context()); rid != "" {
		fields["requestId"] = rid
	}
	return fields
}

func writeError(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	writeJSON(w, status, errBody(r, map[string]string{"error": fmt.Sprintf(format, args...)}))
}

// maxBodyBytes caps request bodies; the largest legitimate payload is
// a batch of query ids or an inline graph spec, both far under 4 MiB.
const maxBodyBytes = 4 << 20

// Load-parameter bounds: synthetic datasets are generated in-process,
// so n, the box count and the gram length all translate directly into
// allocation sizes.
const (
	maxLoadN      = 1 << 20
	maxLoadM      = 64
	maxLoadKappa  = 8
	maxLoadShards = 256
	// maxLoadTau bounds integer-distance thresholds: the graph builder
	// allocates τ+1 parts per graph and the string builder τ+1 pivotal
	// slots per string, so τ is an allocation size too.
	maxLoadTau = 1 << 10
)

// maxBatchQueries caps one batch request; a batch dispatches that many
// full sharded searches, so it needs a bound for the same reason the
// load parameters do.
const maxBatchQueries = 1024

func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, r, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}

// lookup resolves the entry serving a problem name.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request, name string) (*entry, engine.Problem, bool) {
	p, err := engine.ParseProblem(name)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return nil, "", false
	}
	s.mu.RLock()
	e := s.entries[p]
	s.mu.RUnlock()
	if e == nil {
		writeError(w, r, http.StatusNotFound, "no %s index loaded (POST /v1/load first)", p)
		return nil, "", false
	}
	return e, p, true
}

// --- /v1/load ----------------------------------------------------------------

// LoadRequest configures a dataset load. Zero fields select the
// defaults listed per field.
type LoadRequest struct {
	// Problem is hamming, set, string or graph (required).
	Problem string `json:"problem"`
	// Dataset picks the synthetic generator: gist (default) or sift
	// for hamming; dblp (default) or enron for set; imdb (default) or
	// pubmed for string; aids (default) or protein for graph.
	Dataset string `json:"dataset,omitempty"`
	// N is the database size (default 5000; graphs default 500, exact
	// GED verification is expensive).
	N int `json:"n,omitempty"`
	// Seed drives the deterministic generator (default 42).
	Seed int64 `json:"seed,omitempty"`
	// Tau is the build threshold (defaults when omitted: hamming 24,
	// set 0.8, string 2, graph 3). For the integer-distance problems
	// an explicit 0 builds an exact-match index; set similarity
	// requires a Jaccard τ in (0, 1]. Hamming indexes accept
	// per-search overrides; the others are built for this τ.
	Tau *float64 `json:"tau,omitempty"`
	// Shards is the number of index shards (default 1). −1 selects the
	// shard count automatically from the corpus size
	// (engine.AutoShardCount); the response reports the resolved count.
	Shards int `json:"shards,omitempty"`
	// M is the part/box count: hamming partition parts (default d/16),
	// set similarity boxes (default 5).
	M int `json:"m,omitempty"`
	// Kappa is the gram length for string indexes (default 2, or 3
	// when τ ≤ 1).
	Kappa int `json:"kappa,omitempty"`
	// Snapshot names a container file inside the server's snapshot
	// directory to load instead of building: the index (including its
	// problem, τ and shard layout) comes from the file, so every build
	// parameter above except Problem must be absent; Problem, when
	// present, is cross-checked against the snapshot. The swap is
	// atomic — the previous index serves until the new one is open.
	Snapshot string `json:"snapshot,omitempty"`
}

// LoadResponse reports what was built.
type LoadResponse struct {
	Problem string  `json:"problem"`
	Dataset string  `json:"dataset"`
	N       int     `json:"n"`
	Tau     float64 `json:"tau"`
	Shards  int     `json:"shards"`
	BuildMS float64 `json:"buildMs"`
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	var req LoadRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Snapshot != "" {
		s.handleLoadSnapshot(w, r, &req)
		return
	}
	start := time.Now()
	ix, ds, err := Build(req, s.workers)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	e := &entry{index: ix, dataset: ds, buildMS: float64(time.Since(start).Nanoseconds()) / 1e6}
	if !s.install(w, r, ix.Problem(), e) {
		return
	}
	writeJSON(w, http.StatusOK, LoadResponse{
		Problem: string(ix.Problem()), Dataset: ds, N: ix.Len(),
		Tau: ix.Tau(), Shards: shardCount(ix), BuildMS: e.buildMS,
	})
}

// Build generates the synthetic dataset a load request describes and
// indexes it, building shards (and later fanning searches out) over
// workers goroutines (≤ 0 selects GOMAXPROCS). It applies /v1/load's
// bounds and per-problem defaults (see LoadRequest; Snapshot is not
// consulted) and returns the index with the resolved dataset name.
// Every error is the request's fault: an unknown problem or dataset,
// or a parameter out of bounds or rejected by the index builder.
func Build(req LoadRequest, workers int) (engine.Index, string, error) {
	p, err := engine.ParseProblem(req.Problem)
	if err != nil {
		return nil, "", err
	}
	if req.N < 0 {
		return nil, "", errors.New("negative n")
	}
	// Bound the build parameters: dataset generation and index
	// construction are proportional to n (and search-time scratch to
	// M), so unbounded values would let one request pin or OOM the
	// daemon — the same reason inline graph queries are capped.
	if req.N > maxLoadN {
		return nil, "", fmt.Errorf("n=%d exceeds the limit of %d", req.N, maxLoadN)
	}
	if req.M > maxLoadM {
		return nil, "", fmt.Errorf("m=%d exceeds the limit of %d", req.M, maxLoadM)
	}
	if req.Kappa > maxLoadKappa {
		return nil, "", fmt.Errorf("kappa=%d exceeds the limit of %d", req.Kappa, maxLoadKappa)
	}
	if req.N == 0 {
		if p == engine.Graph {
			req.N = 500
		} else {
			req.N = 5000
		}
	}
	if req.Seed == 0 {
		req.Seed = 42
	}
	if req.Shards == engine.AutoShards {
		req.Shards = engine.AutoShardCount(req.N)
	} else if req.Shards <= 0 {
		req.Shards = 1
	}
	if req.Shards > maxLoadShards {
		return nil, "", fmt.Errorf("shards=%d exceeds the limit of %d", req.Shards, maxLoadShards)
	}
	// Hamming, string and graph thresholds are integer distances;
	// reject fractional, negative or oversized τ instead of silently
	// truncating (or trying to allocate) it.
	if req.Tau != nil && p != engine.Set {
		if *req.Tau != math.Trunc(*req.Tau) {
			return nil, "", fmt.Errorf("%s threshold must be an integer, got τ=%v", p, *req.Tau)
		}
		if *req.Tau < 0 || *req.Tau > maxLoadTau {
			return nil, "", fmt.Errorf("%s threshold τ=%v outside [0, %d]", p, *req.Tau, maxLoadTau)
		}
	}
	// tau resolves the build threshold with a per-problem default; a
	// pointer keeps an explicit τ=0 (exact match) distinct from unset.
	tau := func(def float64) float64 {
		if req.Tau != nil {
			return *req.Tau
		}
		return def
	}

	// Each problem has two synthetic generators; the first is the
	// default.
	names := map[engine.Problem][2]string{
		engine.Hamming: {"gist", "sift"}, engine.Set: {"dblp", "enron"},
		engine.String: {"imdb", "pubmed"}, engine.Graph: {"aids", "protein"},
	}[p]
	switch req.Dataset {
	case "":
		req.Dataset = names[0]
	case names[0], names[1]:
	default:
		return nil, "", fmt.Errorf("unknown %s dataset %q (want %s or %s)", p, req.Dataset, names[0], names[1])
	}
	alt := req.Dataset == names[1]

	var ix engine.Index
	switch p {
	case engine.Hamming:
		gen := dataset.GIST
		if alt {
			gen = dataset.SIFT
		}
		// The index copies the vectors into its own arena; queries by
		// id replay them from there.
		vecs := gen(req.N, req.Seed)
		m := req.M
		if m <= 0 {
			m = vecs[0].Dim() / 16
		}
		ix, err = engine.BuildHamming(vecs, m, int(tau(24)), req.Shards, workers)
	case engine.Set:
		gen := dataset.DBLP
		if alt {
			gen = dataset.Enron
		}
		m := req.M
		if m <= 0 {
			m = 5
		}
		cfg := setsim.Config{Measure: setsim.Jaccard, Tau: tau(0.8), M: m}
		ix, err = engine.BuildSet(gen(req.N, req.Seed), cfg, req.Shards, workers)
	case engine.String:
		gen := dataset.IMDB
		if alt {
			gen = dataset.PubMed
		}
		tauV := tau(2)
		kappa := req.Kappa
		if kappa <= 0 {
			kappa = 2
			if tauV <= 1 {
				kappa = 3
			}
		}
		ix, err = engine.BuildString(gen(req.N, req.Seed), kappa, int(tauV), req.Shards, workers)
	case engine.Graph:
		gen := dataset.AIDS
		if alt {
			gen = dataset.Protein
		}
		ix, err = engine.BuildGraph(gen(req.N, req.Seed), int(tau(3)), req.Shards, workers)
	}
	if err != nil {
		return nil, "", fmt.Errorf("building %s index: %w", p, err)
	}
	return ix, req.Dataset, nil
}

// corpusHash computes an index's content address: FNV-64a over its
// snapshot encoding. The encoding is deterministic, so the hash
// identifies the corpus (objects, τ, shard layout) across processes
// without shipping the snapshot itself. Returns "" for an index that
// cannot be persisted — such an index has no cluster identity.
func corpusHash(ix engine.Index) string {
	h := fnv.New64a()
	if _, err := engine.WriteSnapshot(ix, h, nil); err != nil {
		return ""
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// shardCount reports how many shards an index fans out over (1 for a
// plain adapter).
func shardCount(ix engine.Index) int {
	if sh, ok := ix.(*engine.Sharded); ok {
		return sh.Shards()
	}
	return 1
}

// newHooks builds an entry's tracer, shared by every request: the
// closures only touch histogram atomics, so concurrent callbacks are
// safe and the request hot path allocates nothing for tracing. The
// stage callback feeds the snapshot span histograms; search-path
// stages fall through it unrecorded (the wall-clock counters already
// cover them).
func newHooks(pm *problemMetrics) *engine.Hooks {
	return &engine.Hooks{
		Shard: func(_ int, d time.Duration, _ engine.Stats) {
			pm.shardSeconds.Observe(d.Seconds())
		},
		Tile: func(_, _, _, _ int, d time.Duration, _ engine.Stats) {
			pm.joinTileSeconds.Observe(d.Seconds())
		},
		Rung: func(_ int, _ float64, _ int) {
			pm.topkRungs.Inc()
		},
		Stage: func(st engine.Stage, d time.Duration) {
			switch st {
			case engine.StageSnapshotWrite:
				pm.snapshotWriteSeconds.Observe(d.Seconds())
			case engine.StageSnapshotOpen:
				pm.snapshotOpenSeconds.Observe(d.Seconds())
			}
		},
	}
}

// install publishes a freshly built or opened entry under its problem
// slot — the atomic pointer swap every load path shares. The previous
// entry keeps serving until the swap, and requests that already hold
// it finish on it undisturbed (engine indexes are immutable), so a
// reload never blocks or fails a search.
//
// A client that disconnected while the index was being built or
// opened gets the same 499 an abandoned search does, and its index is
// discarded instead of installed: readiness and the indexes_loaded
// gauge only ever count indexes a client was actually answered for.
func (s *Server) install(w http.ResponseWriter, r *http.Request, p engine.Problem, e *entry) bool {
	pm := s.met.problem(p)
	if err := r.Context().Err(); err != nil {
		pm.cancelled.Inc()
		writeJSON(w, statusClientClosedRequest, errBody(r, map[string]string{
			"error": fmt.Sprintf("load abandoned: %v", err),
			"code":  "cancelled",
		}))
		return false
	}
	e.met = pm
	e.hooks = newHooks(pm)
	e.hash = corpusHash(e.index)
	pm.indexObjects.Set(float64(e.index.Len()))
	pm.buildSeconds.Set(e.buildMS / 1e3)
	pm.shards.Set(float64(shardCount(e.index)))

	s.mu.Lock()
	s.entries[p] = e
	loaded := len(s.entries)
	s.mu.Unlock()
	s.met.loaded.Set(float64(loaded))
	return true
}

// --- /v1/snapshot ------------------------------------------------------------

// snapshotPath resolves a client-supplied snapshot file name inside
// the configured directory, answering the error itself: 501 when
// persistence is disabled, 400 for names that could leave the
// directory (only plain file names are accepted).
func (s *Server) snapshotPath(w http.ResponseWriter, r *http.Request, name string) (string, bool) {
	if s.snapDir == "" {
		writeError(w, r, http.StatusNotImplemented, "snapshots are disabled (start the server with a snapshot directory)")
		return "", false
	}
	if name == "" || name != filepath.Base(name) || name == "." || name == ".." {
		writeError(w, r, http.StatusBadRequest, "snapshot must be a plain file name inside the snapshot directory, got %q", name)
		return "", false
	}
	return filepath.Join(s.snapDir, name), true
}

// SnapshotRequest asks the server to persist one loaded index into
// its snapshot directory.
type SnapshotRequest struct {
	// Problem names the loaded index to persist (required).
	Problem string `json:"problem"`
	// File is the container file name inside the snapshot directory
	// (plain name, no separators); defaults to "<problem>.snap".
	File string `json:"file,omitempty"`
}

// SnapshotResponse reports what was written.
type SnapshotResponse struct {
	Problem string  `json:"problem"`
	File    string  `json:"file"`
	Bytes   int64   `json:"bytes"`
	WriteMS float64 `json:"writeMs"`
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	var req SnapshotRequest
	if !decode(w, r, &req) {
		return
	}
	e, p, ok := s.lookup(w, r, req.Problem)
	if !ok {
		return
	}
	name := req.File
	if name == "" {
		name = string(p) + ".snap"
	}
	path, ok := s.snapshotPath(w, r, name)
	if !ok {
		return
	}
	// WriteSnapshotFile is atomic (temp file + rename), so a crash or
	// concurrent reload never observes a torn container; e.hooks feeds
	// the write span into the snapshot_write_seconds histogram.
	start := time.Now()
	n, err := engine.WriteSnapshotFile(e.index, path, e.hooks)
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, "writing snapshot: %v", err)
		return
	}
	e.met.snapshotBytes.Set(float64(n))
	writeJSON(w, http.StatusOK, SnapshotResponse{
		Problem: string(p), File: name, Bytes: n,
		WriteMS: float64(time.Since(start).Nanoseconds()) / 1e6,
	})
}

// handleLoadSnapshot serves the {"snapshot": ...} form of /v1/load.
// The container is opened without holding any lock — the previous
// index serves throughout — and installed with the same pointer swap
// a built index gets.
func (s *Server) handleLoadSnapshot(w http.ResponseWriter, r *http.Request, req *LoadRequest) {
	if req.Dataset != "" || req.N != 0 || req.Seed != 0 || req.Tau != nil ||
		req.Shards != 0 || req.M != 0 || req.Kappa != 0 {
		writeError(w, r, http.StatusBadRequest, "a snapshot load takes no build parameters; drop dataset/n/seed/tau/shards/m/kappa")
		return
	}
	path, ok := s.snapshotPath(w, r, req.Snapshot)
	if !ok {
		return
	}
	// The open span belongs in the problem's histogram, but the
	// problem is only known once the container's header is read —
	// capture the span here and observe it after the install.
	var openSpan time.Duration
	hooks := &engine.Hooks{Stage: func(st engine.Stage, d time.Duration) {
		if st == engine.StageSnapshotOpen {
			openSpan = d
		}
	}}
	start := time.Now()
	ix, size, err := engine.OpenSnapshotFile(path, s.workers, hooks)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, os.ErrNotExist) {
			status = http.StatusNotFound
		}
		writeError(w, r, status, "opening snapshot: %v", err)
		return
	}
	p := ix.Problem()
	if req.Problem != "" {
		want, err := engine.ParseProblem(req.Problem)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, "%v", err)
			return
		}
		if want != p {
			writeError(w, r, http.StatusBadRequest, "snapshot %q holds a %s index, not %s", req.Snapshot, p, want)
			return
		}
	}
	e := &entry{
		index:   ix,
		dataset: "snapshot:" + req.Snapshot,
		buildMS: float64(time.Since(start).Nanoseconds()) / 1e6,
	}
	if !s.install(w, r, p, e) {
		return
	}
	e.met.snapshotOpenSeconds.Observe(openSpan.Seconds())
	e.met.snapshotBytes.Set(float64(size))
	writeJSON(w, http.StatusOK, LoadResponse{
		Problem: string(p), Dataset: e.dataset, N: ix.Len(),
		Tau: ix.Tau(), Shards: shardCount(ix), BuildMS: e.buildMS,
	})
}

// --- /v1/search --------------------------------------------------------------

// GraphSpec is the wire encoding of a graph query: n vertices with
// labels, and undirected labeled edges [u, v, label].
type GraphSpec struct {
	N            int      `json:"n"`
	VertexLabels []int32  `json:"vertexLabels"`
	Edges        [][3]int `json:"edges"`
}

func (gs *GraphSpec) build() (*graph.Graph, error) {
	if gs.N <= 0 {
		return nil, fmt.Errorf("graph query needs n ≥ 1")
	}
	if gs.N > graph.MaxVertices {
		return nil, fmt.Errorf("graph query n=%d exceeds the limit of %d vertices", gs.N, graph.MaxVertices)
	}
	if len(gs.VertexLabels) != gs.N {
		return nil, fmt.Errorf("graph query has %d vertex labels for n=%d", len(gs.VertexLabels), gs.N)
	}
	g := graph.New(gs.N)
	for v, lab := range gs.VertexLabels {
		if lab < 0 {
			return nil, fmt.Errorf("graph query vertex %d has negative label %d", v, lab)
		}
		g.SetVertexLabel(v, lab)
	}
	for _, e := range gs.Edges {
		u, v, lab := e[0], e[1], e[2]
		if u < 0 || u >= gs.N || v < 0 || v >= gs.N || u == v {
			return nil, fmt.Errorf("graph query edge [%d %d] out of range for n=%d", u, v, gs.N)
		}
		if lab < 0 || lab > math.MaxInt32 {
			return nil, fmt.Errorf("graph query edge [%d %d] has invalid label %d", u, v, lab)
		}
		g.AddEdge(u, v, int32(lab))
	}
	return g, nil
}

// SearchRequest addresses one query at a loaded index. The query is
// either QueryID — an id into the loaded synthetic dataset, the
// paper's protocol of sampling queries from the data — or exactly one
// inline payload matching the problem: Vector ("0101..." bit string),
// Set (sorted unique token ids in the loaded dataset's frequency-rank
// space), String, or Graph.
type SearchRequest struct {
	Problem string     `json:"problem"`
	QueryID *int       `json:"queryId,omitempty"`
	Vector  string     `json:"vector,omitempty"`
	Set     []int32    `json:"set,omitempty"`
	String  *string    `json:"string,omitempty"`
	Graph   *GraphSpec `json:"graph,omitempty"`
	// Tau overrides the threshold when present (hamming only; others
	// are built for a fixed τ). Omitting it keeps the index default;
	// an explicit 0 runs an exact-match search.
	Tau *float64 `json:"tau,omitempty"`
	// L is the pigeonring chain length: 0 the paper's recommendation,
	// 1 the pigeonhole baseline, ≥ 2 the ring filter.
	L int `json:"l,omitempty"`
	// Limit stops the search after the first Limit results in
	// ascending id order; 0 means unlimited. A sharded index abandons
	// shards that cannot contribute to the first Limit ids.
	Limit int `json:"limit,omitempty"`
	// K switches the request into top-k mode: instead of every id
	// within τ, the response carries the K nearest objects as
	// [{id, distance}] pairs ordered by (distance, id) ascending. K is
	// mutually exclusive with limit and skipVerify (400 with code
	// "invalid_argument"); on a hamming index tau caps the search
	// radius, on the other problems the built τ is the ceiling.
	K int `json:"k,omitempty"`
	// TimeoutMS puts a deadline on the search, in milliseconds; an
	// exceeded deadline answers 504 with code "deadline_exceeded".
	// 0 falls back to the server's default timeout (if configured);
	// the effective deadline is never longer than that default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// SkipVerify stops after candidate generation; the stats' wallNs
	// is then the filter share of the same search without it.
	SkipVerify bool `json:"skipVerify,omitempty"`
	// CorpusHash, when present, must match the loaded index's corpus
	// hash (see /v1/healthz "corpora"); a mismatch answers 409 with
	// code "corpus_mismatch". A coordinator stamps it on the searches
	// it forwards, so a replica that reloaded another corpus refuses
	// the search and the coordinator retries it on another replica.
	CorpusHash string `json:"corpusHash,omitempty"`
}

// SearchResponse carries one query's results.
type SearchResponse struct {
	Problem string       `json:"problem"`
	IDs     []int64      `json:"ids"`
	Stats   engine.Stats `json:"stats"`
}

// TopKResponse carries a top-k search's results, ordered by
// (distance, id) ascending. It is a separate shape from SearchResponse
// on purpose: a top-k answer has no "ids" field, so a client cannot
// mistake ranked results for a threshold id list.
type TopKResponse struct {
	Problem string          `json:"problem"`
	Results []engine.Result `json:"results"`
	Stats   engine.Stats    `json:"stats"`
}

// query resolves the request's query payload against the entry.
func (e *entry) query(p engine.Problem, req *SearchRequest) (engine.Query, error) {
	inline := 0
	if req.Vector != "" {
		inline++
	}
	if req.Set != nil {
		inline++
	}
	if req.String != nil {
		inline++
	}
	if req.Graph != nil {
		inline++
	}
	if inline > 1 || (req.QueryID != nil && inline > 0) {
		return engine.Query{}, fmt.Errorf("ambiguous query: supply queryId or exactly one inline payload, not both")
	}
	if req.QueryID != nil {
		return e.byID(*req.QueryID)
	}
	switch p {
	case engine.Hamming:
		if req.Vector == "" {
			return engine.Query{}, fmt.Errorf("hamming search needs queryId or vector")
		}
		v, err := bitvec.FromString(req.Vector)
		if err != nil {
			return engine.Query{}, err
		}
		return engine.VectorQuery(v), nil
	case engine.Set:
		if req.Set == nil {
			return engine.Query{}, fmt.Errorf("set search needs queryId or set")
		}
		return engine.SetQuery(tokenset.Set(req.Set)), nil
	case engine.String:
		if req.String == nil {
			return engine.Query{}, fmt.Errorf("string search needs queryId or string")
		}
		return engine.StringQuery(*req.String), nil
	case engine.Graph:
		if req.Graph == nil {
			return engine.Query{}, fmt.Errorf("graph search needs queryId or graph")
		}
		g, err := req.Graph.build()
		if err != nil {
			return engine.Query{}, err
		}
		return engine.GraphQuery(g), nil
	}
	return engine.Query{}, fmt.Errorf("unhandled problem %s", p)
}

// byID replays indexed object id as a query, the same way a join row
// does.
func (e *entry) byID(id int) (engine.Query, error) {
	if id < 0 || id >= e.index.Len() {
		return engine.Query{}, fmt.Errorf("queryId %d out of range [0, %d)", id, e.index.Len())
	}
	return engine.Object(e.index, id)
}

// checkCorpus enforces a request's corpusHash claim against the entry
// actually serving, answering 409 {"code":"corpus_mismatch"} itself on
// disagreement. An absent claim always passes — single-node clients
// don't know or care about corpus identity.
func (s *Server) checkCorpus(w http.ResponseWriter, r *http.Request, e *entry, claim string) bool {
	if claim == "" || claim == e.hash {
		return true
	}
	writeJSON(w, http.StatusConflict, errBody(r, map[string]string{
		"error": fmt.Sprintf("corpus hash mismatch: request expects %s, this index is %s", claim, e.hash),
		"code":  "corpus_mismatch",
	}))
	return false
}

// writeInvalidArgument answers a request whose fields are out of range
// or contradict each other with a machine-readable
// {"code":"invalid_argument"} payload.
func writeInvalidArgument(w http.ResponseWriter, r *http.Request, format string, args ...any) {
	writeJSON(w, http.StatusBadRequest, errBody(r, map[string]string{
		"error": fmt.Sprintf(format, args...),
		"code":  "invalid_argument",
	}))
}

// validateSearch checks the limit, timeout_ms and top-k fields a
// search and a batch share, answering the error itself.
func (s *Server) validateSearch(w http.ResponseWriter, r *http.Request, limit, timeoutMS, k int, skipVerify bool) bool {
	switch {
	case limit < 0 || timeoutMS < 0:
		writeError(w, r, http.StatusBadRequest, "limit and timeout_ms must be non-negative")
	case k < 0:
		writeInvalidArgument(w, r, "k must be non-negative, got %d", k)
	case k == 0:
		return true
	case k > s.maxK:
		writeInvalidArgument(w, r, "k=%d exceeds the limit of %d", k, s.maxK)
	case limit > 0:
		writeInvalidArgument(w, r, "k and limit are mutually exclusive — a top-k search is already bounded by k")
	case skipVerify:
		writeInvalidArgument(w, r, "k requires verification (distances come from the verifier); drop skipVerify")
	default:
		return true
	}
	return false
}

// record folds one search outcome into the problem's registry slice;
// a top-k outcome also observes how deep its τ ladder climbed (the
// per-rung counter is fed by the entry's Rung hook as the ladder
// runs, not here).
func (e *entry) record(st engine.Stats, topk bool) {
	e.met.searches.Inc()
	if st.Limited {
		e.met.limited.Inc()
	}
	e.met.candidates.Add(int64(st.Candidates))
	e.met.results.Add(int64(st.Results))
	e.met.wallNS.Add(st.WallNS)
	e.met.searchSeconds.Observe(float64(st.WallNS) / 1e9)
	if topk {
		e.met.topkRungsPer.Observe(float64(st.Rungs))
	}
}

// orEmpty encodes an empty answer as [] rather than null.
func orEmpty[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
}

// statusClientClosedRequest is nginx's non-standard code for "the
// client went away before the response was ready" — nobody reads the
// body, but access logs distinguish abandoned searches from failures.
const statusClientClosedRequest = 499

// searchContext derives the context one search runs under: the HTTP
// request's context (client disconnect cancels the search), bounded by
// the request's timeout_ms or, when that is absent or larger, the
// server's default timeout.
func (s *Server) searchContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	timeout := s.timeout
	if reqTimeout := time.Duration(timeoutMS) * time.Millisecond; reqTimeout > 0 && (timeout == 0 || reqTimeout < timeout) {
		timeout = reqTimeout
	}
	if timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), timeout)
}

// writeSearchError answers a failed search, mapping context failures
// to their own statuses and counters: an exceeded deadline is 504 with
// a distinguishable {"code":"deadline_exceeded"} payload, a
// disconnected client 499, anything else a plain 400.
func writeSearchError(w http.ResponseWriter, r *http.Request, e *entry, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		e.met.cancelled.Inc()
		writeJSON(w, http.StatusGatewayTimeout, errBody(r, map[string]string{
			"error": fmt.Sprintf("search abandoned: %v", err),
			"code":  "deadline_exceeded",
		}))
	case errors.Is(err, context.Canceled):
		e.met.cancelled.Inc()
		writeJSON(w, statusClientClosedRequest, errBody(r, map[string]string{
			"error": fmt.Sprintf("search abandoned: %v", err),
			"code":  "cancelled",
		}))
	default:
		e.met.errors.Inc()
		writeError(w, r, http.StatusBadRequest, "%v", err)
	}
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if !decode(w, r, &req) || !s.validateSearch(w, r, req.Limit, req.TimeoutMS, req.K, req.SkipVerify) {
		return
	}
	e, p, ok := s.lookup(w, r, req.Problem)
	if !ok || !s.checkCorpus(w, r, e, req.CorpusHash) {
		return
	}
	q, err := e.query(p, &req)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := s.searchContext(r, req.TimeoutMS)
	defer cancel()
	opt := engine.Options{Tau: req.Tau, ChainLength: req.L, Limit: req.Limit, TopK: req.K, SkipVerify: req.SkipVerify, Hooks: e.hooks}
	var ids []int64
	var res []engine.Result
	var st engine.Stats
	if req.K > 0 {
		res, st, err = e.index.SearchTopK(ctx, q, opt)
	} else {
		ids, st, err = e.index.Search(ctx, q, opt)
	}
	if err != nil {
		writeSearchError(w, r, e, err)
		return
	}
	e.record(st, req.K > 0)
	s.slow.maybe(requestID(r.Context()), "search", p, e.tau(req.Tau), req.L, req.Limit, st)
	if req.K > 0 {
		writeJSON(w, http.StatusOK, TopKResponse{Problem: string(p), Results: orEmpty(res), Stats: st})
	} else {
		writeJSON(w, http.StatusOK, SearchResponse{Problem: string(p), IDs: orEmpty(ids), Stats: st})
	}
}

// --- /v1/search/batch --------------------------------------------------------

// BatchRequest addresses many dataset queries at once. Limit applies
// per query; TimeoutMS bounds the whole batch — once it expires, the
// remaining queries are cancelled and carry a per-item error. The
// queries run over the server's Config.Workers goroutines; a body
// cannot ask for more (an unknown "workers" field is a 400).
type BatchRequest struct {
	Problem  string   `json:"problem"`
	QueryIDs []int    `json:"queryIds"`
	Tau      *float64 `json:"tau,omitempty"`
	L        int      `json:"l,omitempty"`
	Limit    int      `json:"limit,omitempty"`
	// K switches every query of the batch into top-k mode; per-item
	// results land in BatchItem.Results instead of IDs. Same
	// constraints as SearchRequest.K.
	K          int  `json:"k,omitempty"`
	TimeoutMS  int  `json:"timeout_ms,omitempty"`
	SkipVerify bool `json:"skipVerify,omitempty"`
}

// BatchItem is one query's outcome within a batch. Threshold batches
// fill IDs; top-k batches (K > 0) fill Results — ordered by
// (distance, id) ascending, omitted when no object lies within the
// ceiling — and leave IDs empty.
type BatchItem struct {
	IDs     []int64         `json:"ids"`
	Results []engine.Result `json:"results,omitempty"`
	Stats   engine.Stats    `json:"stats"`
	Error   string          `json:"error,omitempty"`
}

// BatchResponse carries per-query outcomes, positionally aligned with
// the request's QueryIDs.
type BatchResponse struct {
	Problem string      `json:"problem"`
	Results []BatchItem `json:"results"`
}

func (s *Server) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decode(w, r, &req) || !s.validateSearch(w, r, req.Limit, req.TimeoutMS, req.K, req.SkipVerify) {
		return
	}
	e, p, ok := s.lookup(w, r, req.Problem)
	if !ok {
		return
	}
	if len(req.QueryIDs) == 0 {
		writeError(w, r, http.StatusBadRequest, "empty queryIds")
		return
	}
	if len(req.QueryIDs) > maxBatchQueries {
		writeError(w, r, http.StatusBadRequest, "batch of %d queries exceeds the limit of %d", len(req.QueryIDs), maxBatchQueries)
		return
	}
	queries := make([]engine.Query, len(req.QueryIDs))
	for i, id := range req.QueryIDs {
		q, err := e.byID(id)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, "query %d: %v", id, err)
			return
		}
		queries[i] = q
	}
	ctx, cancel := s.searchContext(r, req.TimeoutMS)
	defer cancel()
	opt := engine.Options{Tau: req.Tau, ChainLength: req.L, Limit: req.Limit, TopK: req.K, SkipVerify: req.SkipVerify, Hooks: e.hooks}
	batch := engine.SearchBatch(ctx, e.index, queries, opt, s.workers)
	resp := BatchResponse{Problem: string(p), Results: make([]BatchItem, len(batch))}
	rid := requestID(r.Context())
	deadlined := false
	for i, br := range batch {
		item := BatchItem{IDs: orEmpty(br.IDs), Results: br.TopK, Stats: br.Stats}
		switch {
		case br.Err == nil:
			e.record(br.Stats, req.K > 0)
			s.slow.maybe(rid, "search_batch", p, e.tau(req.Tau), req.L, req.Limit, br.Stats)
		case errors.Is(br.Err, context.Canceled) || errors.Is(br.Err, context.DeadlineExceeded):
			item.Error = br.Err.Error()
			e.met.cancelled.Inc()
			deadlined = deadlined || errors.Is(br.Err, context.DeadlineExceeded)
		default:
			item.Error = br.Err.Error()
			e.met.errors.Inc()
		}
		resp.Results[i] = item
	}
	// A batch the deadline actually cut short gets the same
	// distinguishable payload a single search does; partial results
	// are still attached so the caller can keep what finished. The
	// per-item errors decide the status, not ctx.Err() — a deadline
	// that fires after the last query finished is no failure.
	if deadlined {
		body := map[string]any{
			"error":   "batch deadline exceeded",
			"code":    "deadline_exceeded",
			"results": resp.Results,
		}
		if rid != "" {
			body["requestId"] = rid
		}
		writeJSON(w, http.StatusGatewayTimeout, body)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- /v1/join ----------------------------------------------------------------

// JoinRequest asks for the all-pairs self-join of a loaded dataset:
// every pair of distinct objects within the index's threshold. A join
// runs one search per indexed object, so it is the server's most
// expensive call — bound it with timeout_ms (or the server default)
// and limit.
type JoinRequest struct {
	Problem string `json:"problem"`
	// L is the pigeonring chain length applied to every row's search:
	// 0 the paper's recommendation, 1 the pigeonhole baseline, ≥ 2 the
	// ring filter.
	L int `json:"l,omitempty"`
	// Limit trims the join to its first Limit pairs in ascending
	// (i, j) order; 0 means all pairs.
	Limit int `json:"limit,omitempty"`
	// TimeoutMS puts a deadline on the join, in milliseconds; an
	// exceeded deadline answers 504 with code "deadline_exceeded".
	// 0 falls back to the server's default timeout (if configured).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// SkipVerify stops every row's search after candidate generation;
	// statistics are reported but no pairs.
	SkipVerify bool `json:"skipVerify,omitempty"`
	// TileSize fixes the edge length (in rows) of the join's 2-D tile
	// decomposition; 0 lets the engine auto-size. Tiling never changes
	// the result pairs, only the schedule.
	TileSize int `json:"tileSize,omitempty"`
}

// JoinResponse carries the join's result pairs as [i, j] arrays with
// i < j, ascending by (i, j).
type JoinResponse struct {
	Problem string       `json:"problem"`
	Pairs   [][2]int64   `json:"pairs"`
	Stats   engine.Stats `json:"stats"`
}

// recordJoin folds one join outcome into the problem's registry slice.
func (e *entry) recordJoin(st engine.Stats) {
	e.met.joins.Inc()
	if st.Limited {
		e.met.limited.Inc()
	}
	e.met.joinPairs.Add(int64(st.Pairs))
	e.met.candidates.Add(int64(st.Candidates))
	e.met.wallNS.Add(st.WallNS)
	e.met.joinSeconds.Observe(float64(st.WallNS) / 1e9)
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Limit < 0 || req.TimeoutMS < 0 || req.TileSize < 0 {
		writeError(w, r, http.StatusBadRequest, "limit, timeout_ms and tileSize must be non-negative")
		return
	}
	e, p, ok := s.lookup(w, r, req.Problem)
	if !ok {
		return
	}
	ctx, cancel := s.searchContext(r, req.TimeoutMS)
	defer cancel()
	pairs, st, err := e.index.Join(ctx, engine.JoinOptions{
		ChainLength: req.L,
		Limit:       req.Limit,
		SkipVerify:  req.SkipVerify,
		TileSize:    req.TileSize,
		Hooks:       e.hooks,
	})
	if err != nil {
		writeSearchError(w, r, e, err)
		return
	}
	e.recordJoin(st)
	s.slow.maybe(requestID(r.Context()), "join", p, e.index.Tau(), req.L, req.Limit, st)
	wire := make([][2]int64, len(pairs))
	for i, pr := range pairs {
		wire[i] = [2]int64{pr.I, pr.J}
	}
	writeJSON(w, http.StatusOK, JoinResponse{Problem: string(p), Pairs: wire, Stats: st})
}

// --- /v1/join/tile -----------------------------------------------------------

// TileRequest asks for one tile of a self-join: the pairs whose larger
// id lies in [rowLo, rowHi) and whose smaller id lies in [colLo,
// colHi). It is the RPC unit of a scattered join — a coordinator
// enumerates the tiles of the corpus's 2-D decomposition and dispatches
// each one, stamped with the corpus hash, to whichever replica is up.
type TileRequest struct {
	Problem string `json:"problem"`
	RowLo   int    `json:"rowLo"`
	RowHi   int    `json:"rowHi"`
	ColLo   int    `json:"colLo"`
	ColHi   int    `json:"colHi"`
	// L is the pigeonring chain length applied to every row's search.
	L int `json:"l,omitempty"`
	// TimeoutMS bounds the tile; 0 falls back to the server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// SkipVerify stops every row's search after candidate generation.
	SkipVerify bool `json:"skipVerify,omitempty"`
	// CorpusHash asserts the corpus identity the tile coordinates were
	// computed against; a mismatch answers 409 "corpus_mismatch" (see
	// SearchRequest.CorpusHash).
	CorpusHash string `json:"corpusHash,omitempty"`
}

func (s *Server) handleJoinTile(w http.ResponseWriter, r *http.Request) {
	var req TileRequest
	if !decode(w, r, &req) {
		return
	}
	if req.TimeoutMS < 0 {
		writeError(w, r, http.StatusBadRequest, "timeout_ms must be non-negative")
		return
	}
	e, p, ok := s.lookup(w, r, req.Problem)
	if !ok {
		return
	}
	if !s.checkCorpus(w, r, e, req.CorpusHash) {
		return
	}
	ctx, cancel := s.searchContext(r, req.TimeoutMS)
	defer cancel()
	start := time.Now()
	pairs, st, err := engine.JoinTileRange(ctx, e.index, engine.TileSpec{
		RowLo: req.RowLo, RowHi: req.RowHi, ColLo: req.ColLo, ColHi: req.ColHi,
	}, engine.JoinOptions{
		ChainLength: req.L,
		SkipVerify:  req.SkipVerify,
		Hooks:       e.hooks,
	})
	if err != nil {
		writeSearchError(w, r, e, err)
		return
	}
	// A tile is a join fragment, not a join: it feeds the tile
	// histogram and the candidate/wall counters but not the joins
	// counter — only the coordinator's merged join is one join.
	e.met.joinTileSeconds.Observe(time.Since(start).Seconds())
	e.met.candidates.Add(int64(st.Candidates))
	e.met.joinPairs.Add(int64(st.Pairs))
	e.met.wallNS.Add(st.WallNS)
	wire := make([][2]int64, len(pairs))
	for i, pr := range pairs {
		wire[i] = [2]int64{pr.I, pr.J}
	}
	writeJSON(w, http.StatusOK, JoinResponse{Problem: string(p), Pairs: wire, Stats: st})
}

// --- /v1/indexes -------------------------------------------------------------

// IndexInfo describes one loaded index.
type IndexInfo struct {
	Problem string  `json:"problem"`
	Dataset string  `json:"dataset"`
	N       int     `json:"n"`
	Tau     float64 `json:"tau"`
	Shards  int     `json:"shards"`
	BuildMS float64 `json:"buildMs"`
	// SnapshotHash is the corpus's content address (see corpusHash).
	SnapshotHash string `json:"snapshotHash,omitempty"`
}

// IndexesResponse is the /v1/indexes payload, sorted by problem name.
type IndexesResponse struct {
	Indexes []IndexInfo `json:"indexes"`
}

func (s *Server) handleIndexes(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	resp := IndexesResponse{Indexes: make([]IndexInfo, 0, len(s.entries))}
	for p, e := range s.entries {
		resp.Indexes = append(resp.Indexes, IndexInfo{
			Problem:      string(p),
			Dataset:      e.dataset,
			N:            e.index.Len(),
			Tau:          e.index.Tau(),
			Shards:       shardCount(e.index),
			BuildMS:      e.buildMS,
			SnapshotHash: e.hash,
		})
	}
	s.mu.RUnlock()
	sort.Slice(resp.Indexes, func(i, j int) bool { return resp.Indexes[i].Problem < resp.Indexes[j].Problem })
	writeJSON(w, http.StatusOK, resp)
}

// --- /v1/stats ---------------------------------------------------------------

// ProblemStats is the live serving report of one loaded index.
type ProblemStats struct {
	Dataset string  `json:"dataset"`
	N       int     `json:"n"`
	Tau     float64 `json:"tau"`
	Shards  int     `json:"shards"`
	BuildMS float64 `json:"buildMs"`
	// SnapshotHash is the corpus's content address (see corpusHash).
	SnapshotHash string  `json:"snapshotHash,omitempty"`
	Queries      int64   `json:"queries"`
	Errors       int64   `json:"errors"`
	Cancelled    int64   `json:"cancelled"`
	Limited      int64   `json:"limited"`
	Candidates   int64   `json:"candidates"`
	Results      int64   `json:"results"`
	Joins        int64   `json:"joins"`
	JoinPairs    int64   `json:"joinPairs"`
	WallMS       float64 `json:"wallMs"`
}

// StatsResponse is the /v1/stats payload.
type StatsResponse struct {
	UptimeSec float64                 `json:"uptimeSec"`
	Problems  map[string]ProblemStats `json:"problems"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		UptimeSec: time.Since(s.started).Seconds(),
		Problems:  make(map[string]ProblemStats),
	}
	s.mu.RLock()
	entries := make(map[engine.Problem]*entry, len(s.entries))
	for p, e := range s.entries {
		entries[p] = e
	}
	s.mu.RUnlock()
	for p, e := range entries {
		// The serving counters are read back from the registry, so
		// /v1/stats and /metrics can never disagree; counters are
		// monotonic over the server's lifetime and survive reloads.
		m := e.met
		resp.Problems[string(p)] = ProblemStats{
			Dataset:      e.dataset,
			N:            e.index.Len(),
			Tau:          e.index.Tau(),
			Shards:       shardCount(e.index),
			BuildMS:      e.buildMS,
			SnapshotHash: e.hash,
			Queries:      m.searches.Value(),
			Errors:       m.errors.Value(),
			Cancelled:    m.cancelled.Value(),
			Limited:      m.limited.Value(),
			Candidates:   m.candidates.Value(),
			Results:      m.results.Value(),
			Joins:        m.joins.Value(),
			JoinPairs:    m.joinPairs.Value(),
			WallMS:       float64(m.wallNS.Value()) / 1e6,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
