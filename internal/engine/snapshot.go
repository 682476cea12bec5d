package engine

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/graph"
	"repro/internal/hamming"
	"repro/internal/parallel"
	"repro/internal/setsim"
	"repro/internal/snapshot"
	"repro/internal/strdist"
)

// SnapshotBackend tags engine-level snapshot containers: one file
// holding the sections of every shard plus the engine's own metadata.
const SnapshotBackend = "pigeonring-engine"

// WriteSnapshot serializes ix — a plain adapter or a Sharded composite
// — into one snapshot container on w, returning
// the bytes written. hooks (optional) receives one StageSnapshotWrite
// span covering the whole pass.
func WriteSnapshot(ix Index, w io.Writer, hooks *Hooks) (int64, error) {
	start := time.Now()
	var shards []*adapter
	switch ix := ix.(type) {
	case *adapter:
		shards = []*adapter{ix}
	case *Sharded:
		shards = ix.shards
	}
	b := snapshot.NewBuilder()
	b.Add("engine/problem", []byte(ix.Problem()))
	b.AddU64s("engine/meta", []uint64{
		uint64(len(shards)),
		math.Float64bits(ix.Tau()),
	})
	for i, a := range shards {
		if err := a.b.AppendSnapshot(b, fmt.Sprintf("s%d/", i)); err != nil {
			return 0, fmt.Errorf("engine: snapshotting shard %d: %w", i, err)
		}
	}
	n, err := b.WriteTo(w, SnapshotBackend)
	if err != nil {
		return n, err
	}
	hooks.stage(StageSnapshotWrite, time.Since(start))
	return n, nil
}

// OpenSnapshot reconstructs the Index stored in a container written by
// WriteSnapshot: single-shard snapshots open as a plain adapter,
// multi-shard ones as a Sharded composite fanning out over workers
// (≤ 0 selects GOMAXPROCS). hooks (optional) receives one
// StageSnapshotOpen span covering the whole pass.
func OpenSnapshot(r io.ReaderAt, workers int, hooks *Hooks) (Index, error) {
	start := time.Now()
	rd, err := snapshot.Open(r)
	if err != nil {
		return nil, err
	}
	if err := rd.CheckBackend(SnapshotBackend); err != nil {
		return nil, err
	}
	problemBytes, err := rd.Section("engine/problem")
	if err != nil {
		return nil, err
	}
	problem, err := ParseProblem(string(problemBytes))
	if err != nil {
		return nil, err
	}
	meta, err := rd.U64s("engine/meta")
	if err != nil {
		return nil, err
	}
	if len(meta) != 2 {
		return nil, fmt.Errorf("engine: snapshot meta has %d fields, want 2", len(meta))
	}
	nShards := int(meta[0])
	tau := math.Float64frombits(meta[1])
	if nShards < 1 || nShards > 1<<20 {
		return nil, fmt.Errorf("engine: implausible shard count %d", nShards)
	}

	// Shard section groups are independent and the Reader is safe for
	// concurrent reads, so open them in parallel.
	shards := make([]*adapter, nShards)
	err = parallel.ForEachErr(nShards, workers, func(i int) error {
		prefix := fmt.Sprintf("s%d/", i)
		var a *adapter
		var err error
		switch problem {
		case Hamming:
			var db *hamming.DB
			if db, err = hamming.OpenSnapshotAt(rd, prefix); err == nil {
				a, err = newHamming(db, int(tau))
			}
		case Set:
			var db *setsim.PKWiseDB
			if db, err = setsim.OpenSnapshotAt(rd, prefix); err == nil {
				a, err = newSet(db)
			}
		case String:
			var db *strdist.DB
			if db, err = strdist.OpenSnapshotAt(rd, prefix); err == nil {
				a, err = newString(db)
			}
		case Graph:
			var db *graph.DB
			if db, err = graph.OpenSnapshotAt(rd, prefix); err == nil {
				a, err = newGraph(db)
			}
		}
		if err != nil {
			return fmt.Errorf("engine: opening shard %d: %w", i, err)
		}
		shards[i] = a
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out Index
	if nShards == 1 {
		out = shards[0]
	} else {
		if out, err = newSharded(shards, workers); err != nil {
			return nil, err
		}
	}
	if out.Tau() != tau {
		return nil, fmt.Errorf("engine: snapshot records τ=%v but the index opened with τ=%v", tau, out.Tau())
	}
	hooks.stage(StageSnapshotOpen, time.Since(start))
	return out, nil
}

// WriteSnapshotFile writes ix's snapshot to path atomically: the
// container is written to a temporary file in the same directory and
// renamed into place, so a concurrent reader sees either the old file
// or the complete new one, never a torn write.
func WriteSnapshotFile(ix Index, path string, hooks *Hooks) (int64, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	n, err := WriteSnapshot(ix, tmp, hooks)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	return n, nil
}

// OpenSnapshotFile opens the snapshot at path and returns the
// reconstructed Index along with the file's size in bytes. The file is
// fully consumed before returning; it may be replaced or deleted
// afterwards without affecting the index.
func OpenSnapshotFile(path string, workers int, hooks *Hooks) (Index, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	ix, err := OpenSnapshot(f, workers, hooks)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	return ix, fi.Size(), nil
}

// Object returns the indexed object with the given global id as a
// Query — the replay capability joins use, exposed so callers serving
// a snapshot-loaded index can resolve query-by-id requests without
// retaining the raw dataset.
func Object(ix Index, id int) (Query, error) {
	if id < 0 || id >= ix.Len() {
		return Query{}, fmt.Errorf("engine: object id %d out of range [0,%d)", id, ix.Len())
	}
	return ix.object(id), nil
}
