package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"

	"repro/internal/server"
)

// node is one in-process pigeonringd: the server's handler behind a
// real loopback listener, so requests cross the kernel's TCP stack and
// net/http exactly as they would against the daemon.
type node struct {
	handler http.Handler
	hs      *http.Server
	url     string
	served  chan error
}

// startNode starts a server with the workloads' engine worker count.
// snapDir enables snapshot loads (the traced run serves in-process
// workloads from a snapshot of their index).
func startNode(snapDir string) (*node, error) {
	srv := server.NewFromConfig(server.Config{Workers: workers, SnapshotDir: snapDir})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	n := &node{
		handler: srv.Handler(),
		url:     "http://" + ln.Addr().String(),
		served:  make(chan error, 1),
	}
	n.hs = &http.Server{Handler: n.handler}
	go func() { n.served <- n.hs.Serve(ln) }()
	return n, nil
}

// stop closes the listener and every connection, and waits for the
// serve loop to exit. Callers stop a node only once their requests have
// returned, so there is nothing to drain — and a graceful Shutdown
// would wait five seconds on any connection a client dialled but never
// used.
func (n *node) stop() {
	n.hs.Close()
	<-n.served
}

// client is an HTTP client pinned to a fixed number of keep-alive
// connections to one node, counting the bytes and failures it sees.
type client struct {
	hc   *http.Client
	base string

	reqBytes, respBytes, non2xx atomic.Int64
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	return &client{hc: &http.Client{Transport: tr}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body and decodes a 2xx JSON answer into out; any other
// status is an error carrying the server's message.
func (c *client) post(path string, body []byte, out any) error {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("POST %s: reading body: %w", path, err)
	}
	c.reqBytes.Add(int64(len(body)))
	c.respBytes.Add(int64(len(raw)))
	if resp.StatusCode/100 != 2 {
		c.non2xx.Add(1)
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("POST %s: decoding answer: %w", path, err)
	}
	return nil
}

// postJSON is post with the request marshalled first — client work a
// caller of the daemon does too, so it counts in the op's latency.
func (c *client) postJSON(path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.post(path, body, out)
}
