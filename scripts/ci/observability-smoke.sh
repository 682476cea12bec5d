#!/usr/bin/env bash
# observability-smoke.sh — boot the real daemon, watch readiness flip
# 503 → 200 around the first load, serve traffic, and grep the scrape
# for the families the README promises: the integration seam the unit
# tests can't cover (flag parsing, the instrument middleware and the
# registry all wired through main).
#
# Expects ./pigeonringd to be built (see $PIGEONRINGD in
# with-daemon.sh). Self-dispatching: with-daemon.sh re-invokes this
# script with a phase argument while the daemon it booted is healthy.
set -euo pipefail
addr=127.0.0.1:18080
here=$(dirname "$0")

case "${1-}" in
scrape)
  code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/v1/readyz")
  [ "$code" = "503" ] || { echo "readyz before load: $code, want 503" >&2; exit 1; }
  curl -sf -X POST "http://$addr/v1/load" \
    -d '{"problem":"hamming","n":500,"shards":2}' >/dev/null
  curl -sf "http://$addr/v1/readyz" >/dev/null
  curl -sf -X POST "http://$addr/v1/search" \
    -d '{"problem":"hamming","queryId":3}' >/dev/null
  curl -sf -X POST "http://$addr/v1/search/batch" \
    -d '{"problem":"hamming","queryIds":[1,2,3]}' >/dev/null
  # Top-k mode: ranked results plus the τ-ladder telemetry. The exact
  # counts below include it: 5 recorded searches total (1 threshold +
  # 3 batch queries + 1 top-k), each fanning out to the index's 2
  # shards.
  curl -sf -X POST "http://$addr/v1/search" \
    -d '{"problem":"hamming","queryId":3,"k":10}' | jq -e '.results | length == 10' >/dev/null
  # One tiled self-join so the per-tile histogram below has samples.
  curl -sf -X POST "http://$addr/v1/join" \
    -d '{"problem":"hamming"}' >/dev/null
  curl -sf "http://$addr/metrics" >metrics.txt
  for family in \
    'pigeonring_searches_total{problem="hamming"} 5' \
    'pigeonring_candidates_total{problem="hamming"}' \
    'pigeonring_results_total{problem="hamming"}' \
    'pigeonring_topk_rungs_total{problem="hamming"}' \
    'pigeonring_topk_rungs_per_query_count{problem="hamming"} 1' \
    'pigeonring_search_seconds_count{problem="hamming"} 5' \
    'pigeonring_shard_seconds_count{problem="hamming"} 10' \
    'pigeonring_joins_total{problem="hamming"} 1' \
    'pigeonring_join_tile_seconds_count{problem="hamming"}' \
    'pigeonring_index_objects{problem="hamming"} 500' \
    'pigeonring_indexes_loaded 1' \
    'pigeonring_http_requests_total{code="200",endpoint="search"} 2' \
    'pigeonring_http_request_seconds_bucket{endpoint="load",le="+Inf"} 1' \
    'pigeonring_http_inflight_requests 1'; do
    grep -qF "$family" metrics.txt || {
      echo "missing $family in /metrics:" >&2
      cat metrics.txt >&2
      exit 1
    }
  done
  exit 0
  ;;
esac

"$here/with-daemon.sh" "$addr" daemon-observability.log -slow-query-ms 0 -- "$0" scrape
