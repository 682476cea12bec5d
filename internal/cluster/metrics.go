package cluster

import (
	"repro/internal/telemetry"
)

// The coordinator's metric families, all under pigeonring_cluster_.
// Per-replica families are labeled by the replica's base URL — the
// replica set is a static flag, so cardinality is bounded by the
// operator's own configuration.
type clusterMetrics struct {
	reg *telemetry.Registry

	// tileRetries counts work items re-dispatched after a replica
	// failure — the CI fault-injection grep proves the failover path
	// ran by asserting this counter moved. Deliberately label-free so
	// "pigeonring_cluster_tile_retries_total NNN" is one line.
	tileRetries *telemetry.Counter

	searchScatter *telemetry.Histogram
	joinScatter   *telemetry.Histogram
}

func newClusterMetrics(reg *telemetry.Registry) *clusterMetrics {
	lat := telemetry.LatencySeconds()
	return &clusterMetrics{
		reg:           reg,
		tileRetries:   reg.Counter("pigeonring_cluster_tile_retries_total", "Work items (searches, join tiles, forwarded requests) re-dispatched to another replica after a failure."),
		searchScatter: reg.Histogram("pigeonring_cluster_scatter_seconds", "End-to-end coordinator latency of one forwarded search or one scattered join.", lat, telemetry.L("op", "search")),
		joinScatter:   reg.Histogram("pigeonring_cluster_scatter_seconds", "End-to-end coordinator latency of one forwarded search or one scattered join.", lat, telemetry.L("op", "join")),
	}
}

func (m *clusterMetrics) replicaUp(url string) *telemetry.Gauge {
	return m.reg.Gauge("pigeonring_cluster_replica_up", "1 while the replica is believed reachable, 0 while marked down.", telemetry.L("replica", url))
}

func (m *clusterMetrics) tilesDispatched(url string) *telemetry.Counter {
	return m.reg.Counter("pigeonring_cluster_tiles_dispatched_total", "Work items (join tiles, forwarded requests) sent to the replica, including retries.", telemetry.L("replica", url))
}
