package engine

// Stats is the engine's common work report, mapped from each backend's
// native statistics. Counter semantics follow the paper: Candidates is
// the number of objects that survived all filters and reached
// verification, Probes the posting entries scanned, BoxChecks the box
// evaluations of the chain-filter step.
type Stats struct {
	// Candidates is the number of objects that reached verification.
	Candidates int `json:"candidates"`
	// Results is the number of objects meeting the threshold.
	Results int `json:"results"`
	// Probes is the number of posting-list entries scanned.
	Probes int `json:"probes"`
	// BoxChecks is the number of box evaluations performed.
	BoxChecks int `json:"boxChecks"`
	// TotalNS is the CPU time spent serving the call: for a sharded
	// index the sum over shards, which exceeds the wall clock when
	// shards run in parallel.
	TotalNS int64 `json:"totalNs"`
	// WallNS is the end-to-end wall-clock time of the call. The
	// filter share of a search is the WallNS of the same call with
	// SkipVerify set.
	WallNS int64 `json:"wallNs"`
	// Limited reports that Options.Limit (or JoinOptions.Limit) cut
	// the call short: results beyond the limit were dropped, and on a
	// sharded search shards that could no longer contribute may have
	// been abandoned (their PerShard entries are zero). When set,
	// Results counts only the returned ids or pairs while the work
	// counters cover the work actually performed.
	Limited bool `json:"limited,omitempty"`
	// Pairs is the number of result pairs a join returned; 0 for
	// searches. It equals Results on a join and exists so mixed
	// search/join aggregations can tell the two workloads apart.
	Pairs int `json:"pairs,omitempty"`
	// JoinTiles is the number of upper-triangle 2-D tiles a join's
	// fan-out decomposed the id×id pair space into; 0 for searches.
	JoinTiles int `json:"joinTiles,omitempty"`
	// Rungs is the number of τ-ladder rungs a top-k search climbed
	// (summed across shards on a sharded index); 0 for threshold
	// searches.
	Rungs int `json:"rungs,omitempty"`
	// PerShard holds the per-shard breakdown when the index is
	// sharded; nil for a plain adapter.
	PerShard []Stats `json:"perShard,omitempty"`
}

// Merge accumulates o's counters and CPU times into s, and keeps any
// Limit cut o reports: the one aggregation rule for shards, join tiles
// and a coordinator's replica tiles. Wall time, the per-shard
// breakdown and the join counters (Pairs, JoinTiles) are left to the
// caller: summing wall clocks across parallel shards would be
// meaningless.
func (s *Stats) Merge(o Stats) {
	s.Candidates += o.Candidates
	s.Results += o.Results
	s.Probes += o.Probes
	s.BoxChecks += o.BoxChecks
	s.TotalNS += o.TotalNS
	s.Rungs += o.Rungs
	s.Limited = s.Limited || o.Limited
}
