#!/usr/bin/env bash
# Serve smoke: boots shrimpd, exercises the HTTP API end to end, and
# checks the daemon against the batch CLI:
#
#   1. /healthz answers once the daemon is up.
#   2. A cell with an out-of-domain knob (du_queue_depth 0, which would
#      deadlock the simulated machine) is refused with HTTP 400, and
#      the daemon still answers /healthz afterwards.
#   3. A quick table1 experiment job streams NDJSON byte-identical to
#      `shrimpbench -json -exp table1 -quick`.
#   4. Resubmitting the same job is served from the result cache
#      (cache-hit counter visible in /metrics).
#   5. SIGTERM drains the daemon cleanly (exit 0).
#
# Used by `make serve-smoke` and the CI "Serve smoke" step.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${BIN:-bin}
ADDR=${ADDR:-127.0.0.1:18123}
BASE="http://$ADDR"
WORK=$(mktemp -d)
DPID=""
trap '[ -n "$DPID" ] && kill "$DPID" 2>/dev/null; rm -rf "$WORK"' EXIT

go build -o "$BIN/shrimpd" ./cmd/shrimpd
go build -o "$BIN/shrimpbench" ./cmd/shrimpbench

"$BIN/shrimpd" -addr "$ADDR" -cache-dir "$WORK/cache" >"$WORK/shrimpd.log" 2>&1 &
DPID=$!

for _ in $(seq 1 50); do
    curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
    sleep 0.2
done
curl -fsS "$BASE/healthz" | grep -q ok
echo "serve-smoke: daemon is healthy"

CODE=$(curl -sS -o "$WORK/bad.txt" -w '%{http_code}' -X POST \
    -H 'Content-Type: application/json' \
    -d '{"cells":[{"app":"radix-vmmc","nodes":4,"knobs":{"du_queue_depth":0}}]}' \
    "$BASE/v1/jobs")
if [ "$CODE" != 400 ]; then
    echo "serve-smoke: du_queue_depth 0 cell got HTTP $CODE, want 400" >&2
    cat "$WORK/bad.txt" >&2
    exit 1
fi
grep -q du_queue_depth "$WORK/bad.txt"
curl -fsS "$BASE/healthz" | grep -q ok
echo "serve-smoke: out-of-domain knob refused with 400; daemon still healthy"

submit_table1() {
    curl -fsS -X POST -H 'Content-Type: application/json' \
        -d '{"experiment":"table1","quick":true}' "$BASE/v1/jobs" |
        python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])'
}

wait_done() {
    local id=$1 state=queued
    for _ in $(seq 1 600); do
        state=$(curl -fsS "$BASE/v1/jobs/$id" |
            python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
        case $state in
        done) return 0 ;;
        failed | canceled)
            echo "serve-smoke: job $id ended $state" >&2
            cat "$WORK/shrimpd.log" >&2
            return 1
            ;;
        esac
        sleep 0.2
    done
    echo "serve-smoke: job $id never finished (last state $state)" >&2
    return 1
}

ID=$(submit_table1)
wait_done "$ID"
curl -fsS "$BASE/v1/jobs/$ID/results" >"$WORK/api.ndjson"
"$BIN/shrimpbench" -exp table1 -quick -json >"$WORK/cli.ndjson"
diff "$WORK/api.ndjson" "$WORK/cli.ndjson"
echo "serve-smoke: API results byte-identical to shrimpbench -json"

ID2=$(submit_table1)
wait_done "$ID2"
HITS=$(curl -fsS "$BASE/metrics" | awk '$1=="shrimpd_cache_hits_total"{print $2}')
if [ "${HITS:-0}" -le 0 ]; then
    echo "serve-smoke: repeat job recorded no cache hits" >&2
    curl -fsS "$BASE/metrics" >&2
    exit 1
fi
curl -fsS "$BASE/v1/jobs/$ID2/results" >"$WORK/api2.ndjson"
diff "$WORK/api.ndjson" "$WORK/api2.ndjson"
echo "serve-smoke: repeat job served from the result cache ($HITS cell hits)"

kill -TERM "$DPID"
wait "$DPID"
DPID=""
grep -q "drained cleanly" "$WORK/shrimpd.log"
echo "serve-smoke: graceful drain OK"
