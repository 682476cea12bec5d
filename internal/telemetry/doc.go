// Package telemetry is the repo's zero-dependency metrics layer: a
// registry of counters, gauges and histograms plus a Prometheus
// text-format encoder, built entirely on the standard library so the
// serving stack gains observability without importing a metrics SDK.
//
// Design points:
//
//   - Lock-free hot path. A Counter or Gauge update is one atomic op;
//     a Histogram observation is a binary search over its fixed bounds
//     plus two atomic increments and one CAS-added sum. No metric
//     update ever takes a lock, so instrumenting a search path costs
//     nanoseconds, not contention.
//   - Registration is idempotent. Registry.Counter/Gauge/Histogram
//     return the existing handle when called twice with the same name
//     and labels, so callers may re-resolve metrics instead of
//     plumbing handles around; mismatched re-registration (same name,
//     different kind or bounds) panics at startup rather than
//     corrupting the exposition.
//   - Fixed exponential bounds. Histograms use immutable bucket
//     bounds (see ExpBuckets) chosen at registration; observations
//     never allocate, and Quantile estimates p50/p95/p99 from the
//     bucket counts by linear interpolation.
//   - Deterministic exposition. WritePrometheus emits families sorted
//     by name and series sorted by label signature, with Prometheus
//     escaping rules, so the output is stable enough to pin in golden
//     tests and diff across scrapes.
//
// The pigeonringd daemon mounts Registry.Handler on GET /metrics; the
// server layer (internal/server) owns the metric families.
package telemetry
