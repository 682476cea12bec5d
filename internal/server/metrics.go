package server

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/telemetry"
)

// The server's metric families, all under the pigeonring_ namespace.
// HTTP-level families are labeled by endpoint (a closed set — see
// endpointLabel), domain families by problem. Counters are monotonic
// across index reloads: /v1/load replaces the index but never resets
// the registry, the Prometheus contract for rate() to stay meaningful.
//
// serverMetrics is created once per Server; problemMetrics handles are
// resolved lazily at first load and cached, so the request hot path
// touches only pre-resolved atomic handles.
type serverMetrics struct {
	reg *telemetry.Registry

	inflight *telemetry.Gauge
	loaded   *telemetry.Gauge

	mu       sync.Mutex
	problems map[engine.Problem]*problemMetrics
}

// problemMetrics bundles the per-problem families one loaded index
// reports into.
type problemMetrics struct {
	searches   *telemetry.Counter
	errors     *telemetry.Counter
	cancelled  *telemetry.Counter
	limited    *telemetry.Counter
	candidates *telemetry.Counter
	results    *telemetry.Counter
	joins      *telemetry.Counter
	joinPairs  *telemetry.Counter
	wallNS     *telemetry.Counter

	topkRungs *telemetry.Counter

	searchSeconds   *telemetry.Histogram
	joinSeconds     *telemetry.Histogram
	joinTileSeconds *telemetry.Histogram
	shardSeconds    *telemetry.Histogram
	topkRungsPer    *telemetry.Histogram

	snapshotWriteSeconds *telemetry.Histogram
	snapshotOpenSeconds  *telemetry.Histogram

	indexObjects  *telemetry.Gauge
	buildSeconds  *telemetry.Gauge
	shards        *telemetry.Gauge
	snapshotBytes *telemetry.Gauge
}

func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	return &serverMetrics{
		reg:      reg,
		inflight: reg.Gauge("pigeonring_http_inflight_requests", "HTTP requests currently being served."),
		loaded:   reg.Gauge("pigeonring_indexes_loaded", "Problems with a loaded index (readiness is loaded > 0)."),
		problems: make(map[engine.Problem]*problemMetrics),
	}
}

// problem returns (creating on first use) the per-problem handles.
func (m *serverMetrics) problem(p engine.Problem) *problemMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	if pm := m.problems[p]; pm != nil {
		return pm
	}
	l := telemetry.L("problem", string(p))
	lat := telemetry.LatencySeconds()
	pm := &problemMetrics{
		searches:   m.reg.Counter("pigeonring_searches_total", "Completed searches (single and batch items).", l),
		errors:     m.reg.Counter("pigeonring_search_errors_total", "Searches and joins failing for non-context reasons.", l),
		cancelled:  m.reg.Counter("pigeonring_cancelled_total", "Searches, joins and loads abandoned by deadline or disconnect.", l),
		limited:    m.reg.Counter("pigeonring_limited_total", "Searches and joins cut short by a result limit.", l),
		candidates: m.reg.Counter("pigeonring_candidates_total", "Objects reaching verification across all searches.", l),
		results:    m.reg.Counter("pigeonring_results_total", "Result ids returned across all searches.", l),
		joins:      m.reg.Counter("pigeonring_joins_total", "Completed self-joins.", l),
		joinPairs:  m.reg.Counter("pigeonring_join_pairs_total", "Result pairs returned across all joins.", l),
		wallNS:     m.reg.Counter("pigeonring_wall_ns_total", "End-to-end engine wall-clock nanoseconds.", l),

		topkRungs: m.reg.Counter("pigeonring_topk_rungs_total", "τ-ladder rungs climbed across all top-k searches (per shard on a sharded index).", l),

		searchSeconds:   m.reg.Histogram("pigeonring_search_seconds", "Per-search engine latency.", lat, l),
		topkRungsPer:    m.reg.Histogram("pigeonring_topk_rungs_per_query", "τ-ladder depth of one top-k search, summed across shards.", []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}, l),
		joinSeconds:     m.reg.Histogram("pigeonring_join_seconds", "Per-join engine latency.", lat, l),
		joinTileSeconds: m.reg.Histogram("pigeonring_join_tile_seconds", "Per-tile join leg latency; the distribution's spread is tile imbalance.", lat, l),
		shardSeconds:    m.reg.Histogram("pigeonring_shard_seconds", "Per-shard fan-out leg latency; the distribution's spread is shard imbalance.", lat, l),

		snapshotWriteSeconds: m.reg.Histogram("pigeonring_snapshot_write_seconds", "One full snapshot-write pass (serialize + fsync + rename).", lat, l),
		snapshotOpenSeconds:  m.reg.Histogram("pigeonring_snapshot_open_seconds", "One full snapshot-open pass (validate + reconstruct).", lat, l),

		indexObjects:  m.reg.Gauge("pigeonring_index_objects", "Objects in the loaded index.", l),
		buildSeconds:  m.reg.Gauge("pigeonring_index_build_seconds", "Build time of the loaded index.", l),
		shards:        m.reg.Gauge("pigeonring_index_shards", "Shard count of the loaded index.", l),
		snapshotBytes: m.reg.Gauge("pigeonring_index_snapshot_bytes", "Container size of the last snapshot written or loaded.", l),
	}
	m.problems[p] = pm
	return pm
}

// httpLatency and httpRequests resolve HTTP-level series lazily; the
// registry's registration lock is fine here because a request's engine
// work dwarfs one mutex acquisition.
func (m *serverMetrics) httpLatency(endpoint string) *telemetry.Histogram {
	return m.reg.Histogram("pigeonring_http_request_seconds", "HTTP request latency.",
		telemetry.LatencySeconds(), telemetry.L("endpoint", endpoint))
}

func (m *serverMetrics) httpRequests(endpoint string, code int) *telemetry.Counter {
	return m.reg.Counter("pigeonring_http_requests_total", "HTTP requests by endpoint and status code.",
		telemetry.L("endpoint", endpoint), telemetry.L("code", strconv.Itoa(code)))
}

// endpointLabel maps a request path onto the closed endpoint label
// set, so label cardinality stays bounded whatever clients probe.
func endpointLabel(r *http.Request) string {
	switch r.URL.Path {
	case "/v1/load":
		return "load"
	case "/v1/search":
		return "search"
	case "/v1/search/batch":
		return "search_batch"
	case "/v1/join":
		return "join"
	case "/v1/join/tile":
		return "join_tile"
	case "/v1/snapshot":
		return "snapshot"
	case "/v1/indexes":
		return "indexes"
	case "/v1/stats":
		return "stats"
	case "/v1/healthz":
		return "healthz"
	case "/v1/readyz":
		return "readyz"
	case "/metrics":
		return "metrics"
	}
	return "other"
}

// statusRecorder captures the response status for the request metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument is the outermost middleware: request-ID assignment,
// in-flight gauge, request latency and status-code accounting.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := inboundRequestID(r)
		w.Header().Set(requestIDHeader, rid)
		r = r.WithContext(withRequestID(r.Context(), rid))

		ep := endpointLabel(r)
		s.met.inflight.Add(1)
		defer s.met.inflight.Add(-1)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		s.met.httpLatency(ep).Observe(time.Since(start).Seconds())
		s.met.httpRequests(ep, rec.code).Inc()
	})
}
