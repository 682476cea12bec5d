package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
)

func newSnapshotHarness(t *testing.T, dir string) *harness {
	t.Helper()
	return newHarnessServer(t, NewFromConfig(Config{SnapshotDir: dir}))
}

// TestSnapshotReloadRoundTrip is the persistence acceptance test over
// the HTTP surface: build an index, persist it, reload it into a
// fresh server (simulating a restart), and check the reloaded index
// answers queries identically — including query-by-id, which must
// work without the raw dataset in memory.
func TestSnapshotReloadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	h := newSnapshotHarness(t, dir)
	h.load(LoadRequest{Problem: "hamming", N: 300, Seed: 5, Shards: 3})

	qi := 7
	before := h.search(SearchRequest{Problem: "hamming", QueryID: &qi})
	if len(before.IDs) == 0 {
		t.Fatal("canary query found nothing; pick a denser corpus")
	}

	var snap SnapshotResponse
	if code, body := h.post("/v1/snapshot", SnapshotRequest{Problem: "hamming"}, &snap); code != http.StatusOK {
		t.Fatalf("snapshot: status %d body %s", code, body)
	}
	if snap.File != "hamming.snap" || snap.Bytes <= 0 {
		t.Fatalf("snapshot response %+v", snap)
	}
	fi, err := os.Stat(filepath.Join(dir, snap.File))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != snap.Bytes {
		t.Fatalf("file is %d bytes, response said %d", fi.Size(), snap.Bytes)
	}

	// A fresh server (new process, no datasets) reloads the file.
	h2 := newSnapshotHarness(t, dir)
	if code := h2.get("/v1/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before reload: status %d, want 503", code)
	}
	var lr LoadResponse
	if code, body := h2.post("/v1/load", LoadRequest{Snapshot: "hamming.snap"}, &lr); code != http.StatusOK {
		t.Fatalf("snapshot load: status %d body %s", code, body)
	}
	if lr.Problem != "hamming" || lr.N != 300 || lr.Shards != 3 || lr.Tau != 24 {
		t.Fatalf("snapshot load response %+v", lr)
	}
	if code := h2.get("/v1/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz after reload: status %d, want 200", code)
	}

	after := h2.search(SearchRequest{Problem: "hamming", QueryID: &qi})
	if !sameIDs(before.IDs, after.IDs) {
		t.Fatalf("reloaded ids %v, want %v", after.IDs, before.IDs)
	}
	if after.Stats.Candidates != before.Stats.Candidates {
		t.Fatalf("reloaded candidates %d, want %d", after.Stats.Candidates, before.Stats.Candidates)
	}

	// The reloaded index shows up with its provenance, and the
	// snapshot metric families are populated.
	var ixs IndexesResponse
	h2.get("/v1/indexes", &ixs)
	if len(ixs.Indexes) != 1 || ixs.Indexes[0].Dataset != "snapshot:hamming.snap" {
		t.Fatalf("indexes after reload: %+v", ixs.Indexes)
	}
	resp, err := http.Get(h2.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	raw.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, family := range []string{
		`pigeonring_snapshot_open_seconds_count{problem="hamming"} 1`,
		fmt.Sprintf(`pigeonring_index_snapshot_bytes{problem="hamming"} %d`, snap.Bytes),
	} {
		if !strings.Contains(raw.String(), family) {
			t.Fatalf("missing %s in /metrics:\n%s", family, raw.String())
		}
	}
	// The writing server observed the write span.
	resp, err = http.Get(h.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw.Reset()
	raw.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(raw.String(), `pigeonring_snapshot_write_seconds_count{problem="hamming"} 1`) {
		t.Fatalf("missing snapshot_write_seconds in writer /metrics:\n%s", raw.String())
	}
}

// TestSnapshotValidation covers the failure surface: disabled
// persistence, unloaded problems, names that try to leave the
// directory, conflicting load parameters, missing files, problem
// mismatches and corrupted containers.
func TestSnapshotValidation(t *testing.T) {
	// No snapshot directory configured: both endpoints answer 501.
	bare := newHarness(t)
	bare.load(LoadRequest{Problem: "hamming", N: 50, Seed: 1})
	if code, _ := bare.post("/v1/snapshot", SnapshotRequest{Problem: "hamming"}, nil); code != http.StatusNotImplemented {
		t.Fatalf("snapshot without dir: status %d, want 501", code)
	}
	if code, _ := bare.post("/v1/load", LoadRequest{Snapshot: "x.snap"}, nil); code != http.StatusNotImplemented {
		t.Fatalf("snapshot load without dir: status %d, want 501", code)
	}

	dir := t.TempDir()
	h := newSnapshotHarness(t, dir)
	// Snapshot of an unloaded problem.
	if code, _ := h.post("/v1/snapshot", SnapshotRequest{Problem: "hamming"}, nil); code != http.StatusNotFound {
		t.Fatalf("snapshot before load: status %d, want 404", code)
	}
	h.load(LoadRequest{Problem: "hamming", N: 50, Seed: 1})
	// Names that could escape the directory.
	for _, name := range []string{"../evil.snap", "/etc/passwd", "sub/dir.snap", "..", "."} {
		if code, _ := h.post("/v1/snapshot", SnapshotRequest{Problem: "hamming", File: name}, nil); code != http.StatusBadRequest {
			t.Fatalf("snapshot file %q: status %d, want 400", name, code)
		}
		if code, _ := h.post("/v1/load", LoadRequest{Snapshot: name}, nil); code != http.StatusBadRequest {
			t.Fatalf("load snapshot %q: status %d, want 400", name, code)
		}
	}
	// Snapshot loads take no build parameters.
	if code, _ := h.post("/v1/load", LoadRequest{Snapshot: "x.snap", N: 100}, nil); code != http.StatusBadRequest {
		t.Fatalf("snapshot load with n: status %d, want 400", code)
	}
	// Missing file.
	if code, _ := h.post("/v1/load", LoadRequest{Snapshot: "nope.snap"}, nil); code != http.StatusNotFound {
		t.Fatalf("missing snapshot: status %d, want 404", code)
	}

	var snap SnapshotResponse
	if code, body := h.post("/v1/snapshot", SnapshotRequest{Problem: "hamming"}, &snap); code != http.StatusOK {
		t.Fatalf("snapshot: status %d body %s", code, body)
	}
	// Problem mismatch is caught before the swap.
	if code, body := h.post("/v1/load", LoadRequest{Problem: "set", Snapshot: "hamming.snap"}, nil); code != http.StatusBadRequest {
		t.Fatalf("mismatched problem: status %d body %s", code, body)
	}
	// A flipped payload byte fails the section checksum.
	path := filepath.Join(dir, snap.File)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(filepath.Join(dir, "corrupt.snap"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, body := h.post("/v1/load", LoadRequest{Snapshot: "corrupt.snap"}, nil); code != http.StatusBadRequest {
		t.Fatalf("corrupt snapshot: status %d body %s", code, body)
	}
	// The failed loads never disturbed the serving index.
	qi := 3
	h.search(SearchRequest{Problem: "hamming", QueryID: &qi})
}

// TestSnapshotReloadWhileSearching drives reloads and searches
// concurrently (the -race CI run watches the swap): every search must
// answer 200 with the same ids — no failed or blocked queries during
// the swap — while reloads cycle the index underneath them.
func TestSnapshotReloadWhileSearching(t *testing.T) {
	dir := t.TempDir()
	h := newSnapshotHarness(t, dir)
	h.load(LoadRequest{Problem: "hamming", N: 200, Seed: 3, Shards: 2})
	qi := 11
	want := h.search(SearchRequest{Problem: "hamming", QueryID: &qi})
	if code, body := h.post("/v1/snapshot", SnapshotRequest{Problem: "hamming"}, nil); code != http.StatusOK {
		t.Fatalf("snapshot: status %d body %s", code, body)
	}

	stop := make(chan struct{})
	errc := make(chan error, 64)
	var wg sync.WaitGroup
	body, _ := json.Marshal(SearchRequest{Problem: "hamming", QueryID: &qi})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(h.srv.URL+"/v1/search", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				var sr SearchResponse
				err = json.NewDecoder(resp.Body).Decode(&sr)
				resp.Body.Close()
				switch {
				case resp.StatusCode != http.StatusOK:
					errc <- fmt.Errorf("search during reload: status %d", resp.StatusCode)
					return
				case err != nil:
					errc <- err
					return
				case !sameIDs(sr.IDs, want.IDs):
					errc <- fmt.Errorf("search during reload: ids %v, want %v", sr.IDs, want.IDs)
					return
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		if code, body := h.post("/v1/load", LoadRequest{Snapshot: "hamming.snap"}, nil); code != http.StatusOK {
			t.Errorf("reload %d: status %d body %s", i, code, body)
			break
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestLoadCancelledNotInstalled: a load whose client disconnected
// answers 499 and the built index is discarded — readiness stays
// false and indexes_loaded stays 0, instead of counting an index
// nobody was answered for.
func TestLoadCancelledNotInstalled(t *testing.T) {
	s := New(0, 0)
	handler := s.Handler()

	for name, body := range map[string]string{
		"build":    `{"problem":"hamming","n":100}`,
		"snapshot": `{"snapshot":"x.snap"}`,
	} {
		req := httptest.NewRequest("POST", "/v1/load", strings.NewReader(body))
		ctx, cancel := context.WithCancel(req.Context())
		cancel()
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req.WithContext(ctx))
		// The snapshot form fails earlier (501, no directory); only the
		// build form reaches the install gate.
		if name == "build" && rec.Code != statusClientClosedRequest {
			t.Fatalf("%s load with dead client: status %d, want 499", name, rec.Code)
		}
	}
	if ready, n := s.readiness(); ready || n != 0 {
		t.Fatalf("cancelled load left readiness %v with %d indexes", ready, n)
	}
	if got := s.met.problem(engine.Hamming).cancelled.Value(); got != 1 {
		t.Fatalf("cancelled counter = %d, want 1", got)
	}

	// The cancelled-snapshot-load gate: configure a directory, write a
	// real snapshot, then reload it with a dead client.
	dir := t.TempDir()
	h := newSnapshotHarness(t, dir)
	h.load(LoadRequest{Problem: "string", N: 80, Seed: 2})
	if code, body := h.post("/v1/snapshot", SnapshotRequest{Problem: "string"}, nil); code != http.StatusOK {
		t.Fatalf("snapshot: status %d body %s", code, body)
	}
	s2 := NewFromConfig(Config{SnapshotDir: dir})
	req := httptest.NewRequest("POST", "/v1/load", strings.NewReader(`{"snapshot":"string.snap"}`))
	ctx, cancel := context.WithCancel(req.Context())
	cancel()
	rec := httptest.NewRecorder()
	s2.Handler().ServeHTTP(rec, req.WithContext(ctx))
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("snapshot load with dead client: status %d, want 499", rec.Code)
	}
	if ready, n := s2.readiness(); ready || n != 0 {
		t.Fatalf("cancelled snapshot load left readiness %v with %d indexes", ready, n)
	}
}

// TestHammingQueryIDReplaysFromIndex: a hamming entry keeps no copy of
// the generated vectors, so queryId is answered from the index's own
// storage on a built entry exactly as on a snapshot-loaded one. Ids on
// both sides of every shard boundary must resolve to the dataset's
// vector (same answer as sending that vector inline) and must answer
// identically after a snapshot reload.
func TestHammingQueryIDReplaysFromIndex(t *testing.T) {
	dir := t.TempDir()
	h := newSnapshotHarness(t, dir)
	const n, seed = 300, 5
	h.load(LoadRequest{Problem: "hamming", N: n, Seed: seed, Shards: 3})
	vecs := dataset.GIST(n, seed)

	qids := []int{0, 7, 99, 100, 101, 199, 200, 299}
	before := make([]SearchResponse, len(qids))
	for i, qi := range qids {
		before[i] = h.search(SearchRequest{Problem: "hamming", QueryID: &qi})
		inline := h.search(SearchRequest{Problem: "hamming", Vector: vecs[qi].String()})
		if !sameIDs(before[i].IDs, inline.IDs) {
			t.Fatalf("queryId %d: ids %v, inline vector gives %v", qi, before[i].IDs, inline.IDs)
		}
	}

	if code, body := h.post("/v1/snapshot", SnapshotRequest{Problem: "hamming"}, nil); code != http.StatusOK {
		t.Fatalf("snapshot: status %d body %s", code, body)
	}
	h2 := newSnapshotHarness(t, dir)
	if code, body := h2.post("/v1/load", LoadRequest{Snapshot: "hamming.snap"}, nil); code != http.StatusOK {
		t.Fatalf("snapshot load: status %d body %s", code, body)
	}
	for i, qi := range qids {
		after := h2.search(SearchRequest{Problem: "hamming", QueryID: &qi})
		if !sameIDs(before[i].IDs, after.IDs) || after.Stats.Candidates != before[i].Stats.Candidates {
			t.Fatalf("queryId %d after reload: ids %v (%d candidates), want %v (%d)",
				qi, after.IDs, after.Stats.Candidates, before[i].IDs, before[i].Stats.Candidates)
		}
	}
}
