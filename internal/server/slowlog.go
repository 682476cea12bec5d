package server

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"repro/internal/engine"
)

// The slow-query log is a JSON-lines stream of every search, batch
// item or join whose engine wall clock met the configured threshold —
// the first thing to read when a live daemon's p99 moves. One line per
// slow call, one JSON object per line, schema below; requestId joins
// the line to the HTTP access log and the client's error payload.

// SlowQuery is one slow-query log line.
type SlowQuery struct {
	// TS is the completion time, RFC 3339 with milliseconds.
	TS string `json:"ts"`
	// RequestID is the X-Request-ID the call ran under.
	RequestID string `json:"requestId"`
	// Endpoint is the serving endpoint: search, search_batch or join.
	Endpoint string `json:"endpoint"`
	// Problem is the backend searched.
	Problem string `json:"problem"`
	// Tau is the effective threshold.
	Tau float64 `json:"tau"`
	// L is the requested chain length (0 = the paper's default).
	L int `json:"l,omitempty"`
	// Limit is the requested result limit, if any.
	Limit int `json:"limit,omitempty"`
	// Candidates and Results are the call's work counters; for joins
	// Pairs carries the pair count.
	Candidates int `json:"candidates"`
	Results    int `json:"results"`
	Pairs      int `json:"pairs,omitempty"`
	// WallMS is the engine wall clock that tripped the log.
	WallMS float64 `json:"wallMs"`
}

// slowLog serializes slow-query lines onto one writer.
type slowLog struct {
	threshold time.Duration
	mu        sync.Mutex
	w         io.Writer
}

func newSlowLog(threshold time.Duration, w io.Writer) *slowLog {
	if threshold <= 0 || w == nil {
		return nil
	}
	return &slowLog{threshold: threshold, w: w}
}

// maybe writes one line when st's wall clock meets the threshold. A
// nil receiver (log disabled) is a no-op, so call sites need no guard.
func (l *slowLog) maybe(rid, endpoint string, p engine.Problem, tau float64, chainLength, limit int, st engine.Stats) {
	if l == nil || time.Duration(st.WallNS) < l.threshold {
		return
	}
	line, err := json.Marshal(SlowQuery{
		TS:         time.Now().UTC().Format("2006-01-02T15:04:05.000Z07:00"),
		RequestID:  rid,
		Endpoint:   endpoint,
		Problem:    string(p),
		Tau:        tau,
		L:          chainLength,
		Limit:      limit,
		Candidates: st.Candidates,
		Results:    st.Results,
		Pairs:      st.Pairs,
		WallMS:     float64(st.WallNS) / 1e6,
	})
	if err != nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.w.Write(append(line, '\n'))
}
