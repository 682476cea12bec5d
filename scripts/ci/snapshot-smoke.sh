#!/usr/bin/env bash
# snapshot-smoke.sh — the persistence seam end to end through real
# processes: build a hamming, a set, a string and a graph index in one
# daemon, persist each via POST /v1/snapshot, kill the daemon, boot a
# fresh one that loads from the files — rebuilding every index from the
# stored objects — and assert readiness flips and one canary query per
# problem answers with exactly the ids the pre-snapshot run produced.
#
# Expects ./pigeonringd to be built (see $PIGEONRINGD in
# with-daemon.sh). Self-dispatching: with-daemon.sh re-invokes this
# script with a phase argument while the daemon it booted is healthy.
set -euo pipefail
addr=127.0.0.1:18090
here=$(dirname "$0")

case "${1-}" in
save)
  for load in '{"problem":"hamming","n":500,"shards":2}' '{"problem":"set","n":500,"shards":2}' \
    '{"problem":"string","n":500,"shards":2}' '{"problem":"graph","n":200,"shards":2}'; do
    p=$(jq -r .problem <<<"$load")
    curl -sf -X POST "http://$addr/v1/load" -d "$load" >/dev/null
    curl -sf -X POST "http://$addr/v1/search" \
      -d "{\"problem\":\"$p\",\"queryId\":3}" | jq -c .ids >"before-$p.json"
    bytes=$(curl -sf -X POST "http://$addr/v1/snapshot" \
      -d "{\"problem\":\"$p\"}" | jq .bytes)
    [ "$bytes" -gt 0 ] || { echo "$p snapshot wrote $bytes bytes" >&2; exit 1; }
    [ -s "snaps/$p.snap" ] || { echo "snaps/$p.snap missing" >&2; exit 1; }
  done
  exit 0
  ;;
restore)
  code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/v1/readyz")
  [ "$code" = "503" ] || { echo "readyz before reload: $code, want 503" >&2; exit 1; }
  for p in hamming set string graph; do
    curl -sf -X POST "http://$addr/v1/load" -d "{\"snapshot\":\"$p.snap\"}" >/dev/null
    curl -sf "http://$addr/v1/readyz" >/dev/null
    curl -sf -X POST "http://$addr/v1/search" \
      -d "{\"problem\":\"$p\",\"queryId\":3}" | jq -c .ids >"after-$p.json"
    diff "before-$p.json" "after-$p.json" || {
      echo "$p canary query diverged after snapshot reload" >&2
      exit 1
    }
  done
  exit 0
  ;;
esac

mkdir -p snaps
"$here/with-daemon.sh" "$addr" daemon-snapshot-save.log -snapshot-dir snaps -- "$0" save
"$here/with-daemon.sh" "$addr" daemon-snapshot-restore.log -snapshot-dir snaps -- "$0" restore
