// Package cluster implements the coordinator mode of pigeonringd:
// it spreads work over N replica daemons speaking the existing /v1/*
// JSON API, with the same endpoints exposed outward so a client
// cannot tell one box from five.
//
// Every replica holds the whole corpus, and the engine's filters are
// exact, so:
//
//   - A search — threshold or top-k — is forwarded whole to one
//     replica, which answers exactly what a single node does.
//   - A join scatters as 2-D tiles — (rowLo,rowHi)×(colLo,colHi)
//     fragments of the upper-triangle pair space (engine.TileSpec,
//     POST /v1/join/tile), dispatched over a bounded in-flight window
//     and merged by an ascending (i, j) sort, reproducing the
//     single-node pair list exactly.
//
// Correctness across processes rests on corpus identity: every
// replica reports a content hash of its loaded index (the FNV-64a of
// its deterministic snapshot encoding) and the coordinator verifies
// at attach time that all replicas agree, then stamps the hash on
// every search and tile so a replica that reloaded something else
// answers 409 and the work moves to another replica instead of being
// answered from the wrong data.
//
// Failure semantics: a replica that cannot be reached, answers 5xx,
// times out, or rejects the corpus is marked down and its work item
// is retried on another replica with exponential backoff — a dead
// replica degrades throughput, never correctness. Work fails only
// when every replica is down (ErrNoReplicasUp) or the client's own
// context ends. A replica that answers again (including to the next
// load broadcast) is revived.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/parallel"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// ErrNoReplicasUp reports that a work item ran out of replicas: every
// configured replica was tried (or known down) and none answered.
var ErrNoReplicasUp = errors.New("cluster: no replicas up")

// ErrNotAttached reports that the coordinator holds no verified view
// of the replicas' corpora for the requested problem.
var ErrNotAttached = errors.New("cluster: not attached")

// IdentityError reports replicas that disagree about what corpus they
// are serving — scattering over them would merge answers computed on
// different data, so the coordinator refuses to attach.
type IdentityError struct {
	Problem string
	Detail  string
}

func (e *IdentityError) Error() string {
	return fmt.Sprintf("cluster: replicas disagree on the %s corpus: %s", e.Problem, e.Detail)
}

// Config parameterizes New.
type Config struct {
	// Replicas is the static list of replica base URLs (required,
	// non-empty). Scheme-less entries get "http://".
	Replicas []string
	// Timeout bounds each replica HTTP call (one tile, one forwarded
	// request); 0 selects 30s. A timed-out call is retried on another
	// replica.
	Timeout time.Duration
	// RetryBaseDelay is the first retry's backoff (doubling per
	// attempt, capped at 1s); ≤ 0 selects 50ms.
	RetryBaseDelay time.Duration
	// DisableMetrics leaves GET /metrics unmounted on the handler.
	DisableMetrics bool
}

// A scattered join keeps inflightPerReplica tiles per replica in
// flight, and one work item is tried on up to attemptsPerReplica ×
// len(Replicas) replicas before it fails.
const (
	inflightPerReplica = 4
	attemptsPerReplica = 3
)

// corpusInfo is the attach-time identity of one problem's corpus, as
// all replicas agreed on it.
type corpusInfo struct {
	server.IndexInfo
}

// Coordinator fans work out to the replica set. Create with New,
// mount Handler, or call Search/Join directly.
type Coordinator struct {
	replicas []*replica
	client   *http.Client
	timeout  time.Duration
	inflight int
	attempts int
	baseWait time.Duration

	met       *clusterMetrics
	noMetrics bool

	// rr rotates the starting replica of each work item so load
	// spreads even when every item would otherwise pick replica 0.
	rr atomic.Uint64

	mu      sync.RWMutex
	corpora map[string]corpusInfo // problem → verified identity; nil until attached
}

// replica is one configured backend daemon plus its liveness flag.
// up is advisory — a down replica is skipped when picking targets,
// not forbidden: when everything is marked down the picker probes
// down replicas again rather than failing without trying.
type replica struct {
	url string
	up  atomic.Bool

	upGauge    *telemetry.Gauge
	dispatched *telemetry.Counter
}

// New creates a Coordinator over the configured replica set. It does
// not contact the replicas; the first request (or an explicit Attach)
// verifies corpus identity.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: no replicas configured")
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	baseWait := cfg.RetryBaseDelay
	if baseWait <= 0 {
		baseWait = 50 * time.Millisecond
	}
	met := newClusterMetrics(telemetry.NewRegistry())
	c := &Coordinator{
		client:    &http.Client{},
		timeout:   timeout,
		inflight:  inflightPerReplica * len(cfg.Replicas),
		attempts:  attemptsPerReplica * len(cfg.Replicas),
		baseWait:  baseWait,
		met:       met,
		noMetrics: cfg.DisableMetrics,
	}
	seen := make(map[string]bool)
	for _, raw := range cfg.Replicas {
		u := strings.TrimRight(strings.TrimSpace(raw), "/")
		if u == "" {
			continue
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		if seen[u] {
			return nil, fmt.Errorf("cluster: duplicate replica %s", u)
		}
		seen[u] = true
		rep := &replica{
			url:        u,
			upGauge:    met.replicaUp(u),
			dispatched: met.tilesDispatched(u),
		}
		rep.setUp(true)
		c.replicas = append(c.replicas, rep)
	}
	if len(c.replicas) == 0 {
		return nil, fmt.Errorf("cluster: no replicas configured")
	}
	return c, nil
}

func (r *replica) setUp(up bool) {
	r.up.Store(up)
	if up {
		r.upGauge.Set(1)
	} else {
		r.upGauge.Set(0)
	}
}

// Registry returns the registry the coordinator records into.
func (c *Coordinator) Registry() *telemetry.Registry { return c.met.reg }

// Replicas lists the configured replica base URLs.
func (c *Coordinator) Replicas() []string {
	out := make([]string, len(c.replicas))
	for i, r := range c.replicas {
		out[i] = r.url
	}
	return out
}

// Attach contacts every replica, records which are up, and verifies
// that all reachable replicas agree on every loaded corpus (problem,
// content hash, size, τ, shard layout). At least one replica must be
// reachable and the reachable ones must be identical; disagreement is
// an *IdentityError — scattering over diverging corpora would merge
// answers computed on different data.
func (c *Coordinator) Attach(ctx context.Context) error {
	type view struct {
		resp server.IndexesResponse
		err  error
	}
	views := make([]view, len(c.replicas))
	parallel.ForEach(len(c.replicas), len(c.replicas), func(i int) {
		rctx, cancel := context.WithTimeout(ctx, c.timeout)
		defer cancel()
		views[i].err = c.getJSON(rctx, c.replicas[i], "/v1/indexes", &views[i].resp)
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	first := -1
	for i, v := range views {
		c.replicas[i].setUp(v.err == nil)
		if v.err == nil && first < 0 {
			first = i
		}
	}
	if first < 0 {
		return fmt.Errorf("%w: attach reached none of %d replicas (first error: %v)",
			ErrNoReplicasUp, len(c.replicas), views[0].err)
	}
	ref := indexMap(views[first].resp)
	for i, v := range views {
		if v.err != nil || i == first {
			continue
		}
		got := indexMap(v.resp)
		if detail := identityDiff(ref, got); detail != "" {
			return &IdentityError{
				Problem: detail[:strings.IndexByte(detail, ':')],
				Detail: fmt.Sprintf("%s vs %s — %s",
					c.replicas[first].url, c.replicas[i].url, detail),
			}
		}
	}
	c.mu.Lock()
	c.corpora = ref
	c.mu.Unlock()
	return nil
}

// indexMap keys a replica's index listing by problem.
func indexMap(resp server.IndexesResponse) map[string]corpusInfo {
	out := make(map[string]corpusInfo, len(resp.Indexes))
	for _, ix := range resp.Indexes {
		out[ix.Problem] = corpusInfo{IndexInfo: ix}
	}
	return out
}

// identityDiff describes the first way two replicas' corpora diverge,
// or "" when they are interchangeable scatter targets. The comparison
// is by content hash (which already covers objects, τ and shard
// layout); n is double-checked because tile coordinates are derived
// from it.
func identityDiff(a, b map[string]corpusInfo) string {
	keys := make([]string, 0, len(a)+len(b))
	for p := range a {
		keys = append(keys, p)
	}
	for p := range b {
		if _, ok := a[p]; !ok {
			keys = append(keys, p)
		}
	}
	sort.Strings(keys)
	for _, p := range keys {
		ca, okA := a[p]
		cb, okB := b[p]
		switch {
		case !okA:
			return fmt.Sprintf("%s: loaded on one replica, absent on the other", p)
		case !okB:
			return fmt.Sprintf("%s: absent on one replica, loaded on the other", p)
		case ca.SnapshotHash != cb.SnapshotHash:
			return fmt.Sprintf("%s: corpus hash %s vs %s", p, ca.SnapshotHash, cb.SnapshotHash)
		case ca.N != cb.N:
			return fmt.Sprintf("%s: %d vs %d objects", p, ca.N, cb.N)
		}
	}
	return ""
}

// corpus resolves the attached identity of one problem, attaching
// lazily on first need. The bool reports whether the problem is
// loaded; error reports attach failure.
func (c *Coordinator) corpus(ctx context.Context, problem string) (corpusInfo, bool, error) {
	c.mu.RLock()
	attached := c.corpora != nil
	info, ok := c.corpora[problem]
	c.mu.RUnlock()
	if attached && ok {
		return info, true, nil
	}
	// Not attached, or the problem appeared after the last attach
	// (e.g. a load issued directly to the replicas): refresh once.
	if err := c.Attach(ctx); err != nil {
		return corpusInfo{}, false, err
	}
	c.mu.RLock()
	info, ok = c.corpora[problem]
	c.mu.RUnlock()
	return info, ok, nil
}
