#!/usr/bin/env bash
# cluster-smoke.sh — coordinator mode end to end through real
# processes, including failover. Phase A records the single-node truth:
# one daemon builds the hamming corpus, snapshots it, and answers a
# join and a search. Phase B boots three replicas that load the same
# snapshot plus a coordinator over them, which forwards searches whole
# and scatters joins as tiles, and asserts the coordinator's answers
# are byte-identical to phase A — first with all replicas healthy, then
# again after one replica is killed with SIGKILL mid-cluster, which
# must leave the answer bytes unchanged and the coordinator's retry
# counter above zero.
#
# Expects ./pigeonringd to be built (see $PIGEONRINGD in
# with-daemon.sh). Self-dispatching: with-daemon.sh re-invokes this
# script with a phase argument while the daemons it booted are healthy.
set -euo pipefail
coord=127.0.0.1:18100
rep1=127.0.0.1:18101
rep2=127.0.0.1:18102
rep3=127.0.0.1:18103
here=$(dirname "$0")

case "${1-}" in
single)
  curl -sf -X POST "http://$coord/v1/load" \
    -d '{"problem":"hamming","n":600,"shards":2}' >/dev/null
  curl -sf -X POST "http://$coord/v1/snapshot" \
    -d '{"problem":"hamming"}' >/dev/null
  curl -sf -X POST "http://$coord/v1/search" \
    -d '{"problem":"hamming","queryId":11}' | jq -c .ids >single-ids.json
  curl -sf -X POST "http://$coord/v1/join" \
    -d '{"problem":"hamming","tileSize":96}' | jq -c .pairs >single-pairs.json
  [ -s snaps/hamming.snap ] || { echo "snaps/hamming.snap missing" >&2; exit 1; }
  exit 0
  ;;
cluster)
  # The coordinator broadcasts the snapshot load to all three replicas
  # and re-verifies corpus identity; readyz flips once they agree.
  curl -sf -X POST "http://$coord/v1/load" -d '{"snapshot":"hamming.snap"}' >/dev/null
  curl -sf "http://$coord/v1/readyz" >/dev/null

  curl -sf -X POST "http://$coord/v1/search" \
    -d '{"problem":"hamming","queryId":11}' | jq -c .ids >cluster-ids.json
  diff single-ids.json cluster-ids.json || {
    echo "coordinator search diverged from single node" >&2; exit 1; }

  curl -sf -X POST "http://$coord/v1/join" \
    -d '{"problem":"hamming","tileSize":96}' | jq -c .pairs >cluster-pairs.json
  diff single-pairs.json cluster-pairs.json || {
    echo "scattered join diverged from single node" >&2; exit 1; }

  # Fault injection: SIGKILL the second replica. The coordinator still
  # believes it up (it served the join above), and it forwards each
  # search to the next replica in turn, so one of three searches is
  # sent to the dead replica and must be retried elsewhere — with the
  # answer bytes unchanged. The join that follows must match too.
  read -r -a pids <<<"$PIGEONRINGD_PIDS"
  kill -9 "${pids[1]}"

  for i in 1 2 3; do
    curl -sf -X POST "http://$coord/v1/search" \
      -d '{"problem":"hamming","queryId":11}' | jq -c .ids >cluster-failover-ids.json
    diff single-ids.json cluster-failover-ids.json || {
      echo "search $i after replica death diverged from single node" >&2; exit 1; }
  done

  curl -sf -X POST "http://$coord/v1/join" \
    -d '{"problem":"hamming","tileSize":96}' | jq -c .pairs >failover-pairs.json
  diff single-pairs.json failover-pairs.json || {
    echo "join after replica death diverged from single node" >&2; exit 1; }

  retries=$(curl -sf "http://$coord/metrics" \
    | awk '/^pigeonring_cluster_tile_retries_total/ {print $2}')
  [ -n "$retries" ] && [ "$retries" -gt 0 ] || {
    echo "retry counter is '${retries:-absent}', want > 0 after replica death" >&2
    curl -s "http://$coord/metrics" | grep '^pigeonring_cluster' >&2 || true
    exit 1
  }
  echo "replica death survived: $retries retries, answers unchanged"
  exit 0
  ;;
esac

mkdir -p snaps
"$here/with-daemon.sh" "$coord" daemon-cluster-single.log -snapshot-dir snaps -- "$0" single
"$here/with-daemon.sh" \
  "$rep1" daemon-cluster-rep1.log -snapshot-dir snaps ++ \
  "$rep2" daemon-cluster-rep2.log -snapshot-dir snaps ++ \
  "$rep3" daemon-cluster-rep3.log -snapshot-dir snaps ++ \
  "$coord" daemon-cluster-coord.log -coordinator -replicas "$rep1,$rep2,$rep3" \
  -- "$0" cluster
