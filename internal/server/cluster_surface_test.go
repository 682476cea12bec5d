package server

import (
	"net/http"
	"strings"
	"testing"
)

// Tests for the serving surface a cluster coordinator depends on:
// corpus hashes as cross-process identity, the corpus_mismatch guard
// on forwarded searches, and the /v1/join/tile fragment endpoint's
// validation.

// TestCorpusHashIdentity: the hash must agree between two processes
// that built the identical corpus (that is the whole point — attach-
// time identity verification) and differ when the data differs; it
// must also be visible on every introspection surface.
func TestCorpusHashIdentity(t *testing.T) {
	load := LoadRequest{Problem: "hamming", N: 300, Shards: 2}
	h1, h2 := newHarness(t), newHarness(t)
	h1.load(load)
	h2.load(load)

	hash := func(h *harness) string {
		var hr HealthResponse
		if code := h.get("/v1/healthz", &hr); code != http.StatusOK {
			t.Fatalf("healthz: %d", code)
		}
		return hr.Corpora["hamming"]
	}
	a, b := hash(h1), hash(h2)
	if a == "" || a != b {
		t.Fatalf("identical corpora hash %q vs %q", a, b)
	}

	h3 := newHarness(t)
	h3.load(LoadRequest{Problem: "hamming", N: 300, Shards: 2, Seed: 7})
	if c := hash(h3); c == a {
		t.Fatalf("different corpus reports the same hash %q", c)
	}
	// A different shard layout is a different serving identity too: a
	// coordinator must not mix tile coordinates across layouts.
	h4 := newHarness(t)
	h4.load(LoadRequest{Problem: "hamming", N: 300, Shards: 3})
	if c := hash(h4); c == a {
		t.Fatalf("different shard layout reports the same hash %q", c)
	}

	// A search stamped with another corpus's hash is refused, so a
	// coordinator can fail over from a replica that reloaded.
	qid := 3
	if code, body := h1.post("/v1/search", SearchRequest{
		Problem: "hamming", QueryID: &qid, CorpusHash: "feedfacefeedface",
	}, nil); code != http.StatusConflict || !strings.Contains(body, `"corpus_mismatch"`) {
		t.Fatalf("stale corpus hash: status %d body %s, want 409 corpus_mismatch", code, body)
	}
	if got := h1.search(SearchRequest{Problem: "hamming", QueryID: &qid, CorpusHash: a}); len(got.IDs) == 0 {
		t.Fatal("search stamped with the loaded corpus hash found nothing, not even its own query")
	}

	var ir IndexesResponse
	h1.get("/v1/indexes", &ir)
	if len(ir.Indexes) != 1 || ir.Indexes[0].SnapshotHash != a {
		t.Fatalf("indexes hash %+v, want %q", ir.Indexes, a)
	}
	var sr StatsResponse
	h1.get("/v1/stats", &sr)
	if sr.Problems["hamming"].SnapshotHash != a {
		t.Fatalf("stats hash %q, want %q", sr.Problems["hamming"].SnapshotHash, a)
	}
}

// TestJoinTileValidation: POST /v1/join/tile refuses a stale corpus
// hash and a tile out of range. That the union of the tiles is the
// join is internal/engine's TestExactness, whose coordinator scatters
// every join over this endpoint.
func TestJoinTileValidation(t *testing.T) {
	h := newHarness(t)
	h.load(LoadRequest{Problem: "hamming", N: 300, Shards: 2})
	if code, body := h.post("/v1/join/tile", TileRequest{
		Problem: "hamming", RowLo: 0, RowHi: 10, ColLo: 0, ColHi: 10,
		CorpusHash: "feedfacefeedface",
	}, nil); code != http.StatusConflict {
		t.Fatalf("stale corpus hash on tile: status %d body %s, want 409", code, body)
	}
	if code, body := h.post("/v1/join/tile", TileRequest{
		Problem: "hamming", RowLo: 0, RowHi: 1000, ColLo: 0, ColHi: 10,
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("out-of-range tile: status %d body %s, want 400", code, body)
	}
}
