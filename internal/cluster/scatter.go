package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/parallel"
	"repro/internal/server"
)

// ErrNotLoaded reports that no replica holds an index for the
// requested problem.
var ErrNotLoaded = errors.New("cluster: no index loaded on the replicas")

// Search answers one threshold search through the coordinator's one
// search path (see search): the ids are exactly a single node's, the
// statistics the answering replica's. A top-k request belongs on
// Handler, whose response carries its results.
func (c *Coordinator) Search(ctx context.Context, req server.SearchRequest) ([]int64, engine.Stats, error) {
	if req.K > 0 {
		return nil, engine.Stats{}, fmt.Errorf("cluster: Search answers threshold searches; send top-k requests through Handler")
	}
	var resp server.SearchResponse
	if err := c.search(ctx, req, &resp); err != nil {
		return nil, engine.Stats{}, err
	}
	return resp.IDs, resp.Stats, nil
}

// search forwards one search — threshold or top-k — whole to one
// replica with failover, decoding the answer into out. Unless the
// caller brought a corpus hash, the request carries the attached one,
// so a replica that reloaded another corpus answers 409 and the search
// moves on to the next replica.
func (c *Coordinator) search(ctx context.Context, req server.SearchRequest, out any) error {
	info, ok, err := c.corpus(ctx, req.Problem)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotLoaded, req.Problem)
	}
	if req.CorpusHash == "" {
		req.CorpusHash = info.SnapshotHash
	}
	start := time.Now()
	if err := c.withReplica(ctx, "/v1/search", &req, out); err != nil {
		return err
	}
	c.met.searchScatter.Observe(time.Since(start).Seconds())
	return nil
}

// Join scatters one self-join across the replicas as 2-D tiles — the
// same upper-triangle decomposition the single-node engine schedules
// across goroutines, dispatched over a bounded in-flight window with
// per-tile failover. The merged, (i, j)-ascending pair list is
// byte-identical to the single-node join whatever the replica count,
// tile size, or mid-join deaths.
func (c *Coordinator) Join(ctx context.Context, req server.JoinRequest) ([][2]int64, engine.Stats, error) {
	info, ok, err := c.corpus(ctx, req.Problem)
	if err != nil {
		return nil, engine.Stats{}, err
	}
	if !ok {
		return nil, engine.Stats{}, fmt.Errorf("%w: %s", ErrNotLoaded, req.Problem)
	}
	start := time.Now()
	// Auto tile sizing targets the scatter's consumers: enough tiles
	// to keep every replica's in-flight window fed, same policy as
	// the in-process pool's 2-tiles-per-worker.
	tiles := engine.EnumerateTiles(info.N, req.TileSize, c.inflight)
	tilePairs := make([][][2]int64, len(tiles))
	tileStats := make([]engine.Stats, len(tiles))
	err = parallel.ForEachCtx(ctx, len(tiles), c.inflight, func(jobCtx context.Context, t int) error {
		tl := tiles[t]
		treq := server.TileRequest{
			Problem: req.Problem,
			RowLo:   tl.RowLo, RowHi: tl.RowHi, ColLo: tl.ColLo, ColHi: tl.ColHi,
			L:          req.L,
			TimeoutMS:  req.TimeoutMS,
			SkipVerify: req.SkipVerify,
			CorpusHash: info.SnapshotHash,
		}
		var resp server.JoinResponse
		if err := c.withReplica(jobCtx, "/v1/join/tile", &treq, &resp); err != nil {
			return fmt.Errorf("tile rows [%d,%d) cols [%d,%d): %w", tl.RowLo, tl.RowHi, tl.ColLo, tl.ColHi, err)
		}
		tilePairs[t], tileStats[t] = resp.Pairs, resp.Stats
		return nil
	})
	if err != nil {
		return nil, engine.Stats{}, err
	}
	var agg engine.Stats
	total := 0
	for t := range tiles {
		agg.Merge(tileStats[t])
		total += len(tilePairs[t])
	}
	out := make([][2]int64, 0, total)
	for _, ps := range tilePairs {
		out = append(out, ps...)
	}
	slices.SortFunc(out, func(a, b [2]int64) int { return slices.Compare(a[:], b[:]) })
	if req.Limit > 0 && len(out) > req.Limit {
		out = out[:req.Limit]
		agg.Limited = true
	}
	agg.Pairs = len(out)
	agg.Results = len(out)
	agg.JoinTiles = len(tiles)
	agg.WallNS = time.Since(start).Nanoseconds()
	c.met.joinScatter.Observe(time.Since(start).Seconds())
	return out, agg, nil
}
