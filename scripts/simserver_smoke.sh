#!/usr/bin/env bash
# End-to-end smoke test for cmd/simserver: the HTTP transport must serve
# the exact bytes the CLI prints for a sweep and for a matrix (the
# byte-identity contract across the shared orchestration layer), serve
# identical resubmissions of either from the cache with zero simulated
# points, finish a vc job with several VCs per dateline class on a ring,
# reject malformed specs loudly with the CLI's own validation message,
# and drain cleanly on SIGTERM.
#
# Usage: scripts/simserver_smoke.sh  (from the repo root; needs curl + jq)
set -euo pipefail

ADDR=127.0.0.1:18473
BASE="http://$ADDR"
WORK=$(mktemp -d)
SWEEP='hotspot(t=1,2)'

cleanup() {
  [[ -n "${SRV_PID:-}" ]] && kill -9 "$SRV_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== build"
go build -o "$WORK/trafficsim" ./cmd/trafficsim
go build -o "$WORK/simserver" ./cmd/simserver

echo "== golden: the CLI's tables for the sweep and the matrix"
"$WORK/trafficsim" -sweep "$SWEEP" -protocols MESI -q > "$WORK/cli.out"
"$WORK/trafficsim" -fig 5.1a -benchmarks FFT -protocols MESI -q > "$WORK/cli-matrix.out"

echo "== start simserver"
"$WORK/simserver" -addr "$ADDR" -cachedir "$WORK/cache" -grace 20s &
SRV_PID=$!
for i in $(seq 1 50); do
  curl -fsS "$BASE/v1/healthz" >/dev/null 2>&1 && break
  [[ $i == 50 ]] && { echo "server never came up"; exit 1; }
  sleep 0.2
done

wait_done() {
  local id=$1
  for i in $(seq 1 300); do
    state=$(curl -fsS "$BASE/v1/jobs/$id" | jq -r .state)
    case "$state" in
      done) return 0 ;;
      failed|cancelled) echo "job $id ended $state"; curl -fsS "$BASE/v1/jobs/$id"; exit 1 ;;
    esac
    sleep 0.2
  done
  echo "job $id never finished"; exit 1
}

echo "== submit the same sweep over HTTP"
ID=$(curl -fsS "$BASE/v1/jobs" \
  -d "{\"sweep\":\"$SWEEP\",\"protocols\":[\"MESI\"]}" | jq -r .id)
wait_done "$ID"
curl -fsS "$BASE/v1/jobs/$ID/result?format=text" > "$WORK/http.out"
if ! cmp "$WORK/cli.out" "$WORK/http.out"; then
  echo "HTTP result is not byte-identical to the CLI table"
  diff "$WORK/cli.out" "$WORK/http.out" || true
  exit 1
fi
echo "   byte-identical to trafficsim -sweep"

echo "== the event stream replays gap-free"
SEQS=$(curl -fsS "$BASE/v1/jobs/$ID/events" | jq -r .seq | paste -sd, -)
EXPECT=$(seq 0 "$(( $(echo "$SEQS" | tr ',' '\n' | wc -l) - 1 ))" | paste -sd, -)
[[ "$SEQS" == "$EXPECT" ]] || { echo "event seqs not gap-free: $SEQS"; exit 1; }

echo "== identical resubmission is served from the cache (0 simulated)"
ID2=$(curl -fsS "$BASE/v1/jobs" \
  -d "{\"sweep\":\"$SWEEP\",\"protocols\":[\"MESI\"]}" | jq -r .id)
wait_done "$ID2"
STATUS=$(curl -fsS "$BASE/v1/jobs/$ID2")
CACHED=$(echo "$STATUS" | jq .progress.points_cached)
DONE=$(echo "$STATUS" | jq .progress.points_done)
if [[ "$CACHED" != 2 || "$DONE" != 2 ]]; then
  echo "resubmission was not fully cache-served: $STATUS"; exit 1
fi
curl -fsS "$BASE/v1/jobs/$ID2/result?format=text" > "$WORK/http2.out"
cmp "$WORK/cli.out" "$WORK/http2.out" || { echo "cached result differs"; exit 1; }

# A matrix is a one-point sweep: it runs, caches and reports progress
# through the same path, so a resubmission is point 0 of 1, cache-served.
MATRIX='{"figures":["5.1a"],"benchmarks":["FFT"],"protocols":["MESI"]}'

echo "== submit a matrix over HTTP"
MID=$(curl -fsS "$BASE/v1/jobs" -d "$MATRIX" | jq -r .id)
wait_done "$MID"
curl -fsS "$BASE/v1/jobs/$MID/result?format=text" > "$WORK/http-matrix.out"
if ! cmp "$WORK/cli-matrix.out" "$WORK/http-matrix.out"; then
  echo "HTTP matrix result is not byte-identical to the CLI table"
  diff "$WORK/cli-matrix.out" "$WORK/http-matrix.out" || true
  exit 1
fi
echo "   byte-identical to trafficsim -fig 5.1a"

echo "== identical matrix resubmission is served from the cache (0 simulated)"
MID2=$(curl -fsS "$BASE/v1/jobs" -d "$MATRIX" | jq -r .id)
wait_done "$MID2"
STATUS=$(curl -fsS "$BASE/v1/jobs/$MID2")
CACHED=$(echo "$STATUS" | jq .progress.points_cached)
DONE=$(echo "$STATUS" | jq .progress.points_done)
if [[ "$CACHED" != 1 || "$DONE" != 1 ]]; then
  echo "matrix resubmission was not cache-served: $STATUS"; exit 1
fi
curl -fsS "$BASE/v1/jobs/$MID2/result?format=text" > "$WORK/http-matrix2.out"
cmp "$WORK/cli-matrix.out" "$WORK/http-matrix2.out" || { echo "cached matrix result differs"; exit 1; }

# Four VCs split into dateline classes of two, which reorder a channel
# unless the fabric restores its order; MESI on a ring trips over a
# reordered channel, and the panic used to kill the server.
echo "== a vc job with 4 VCs on a ring finishes"
VID=$(curl -fsS "$BASE/v1/jobs" -d '{"figures":["5.1a"],"benchmarks":["radix"],"protocols":["MESI"],"router":"vc","vcs":4,"topology":"ring"}' | jq -r .id)
wait_done "$VID"

echo "== malformed spec is a loud 400 with the CLI's message"
CODE=$(curl -s -o "$WORK/err.json" -w '%{http_code}' "$BASE/v1/jobs" \
  -d '{"sweep":"hotspot(t=4)"}')
[[ "$CODE" == 400 ]] || { echo "want 400, got $CODE"; exit 1; }
grep -q 'no parameter has multiple values' "$WORK/err.json" \
  || { echo "400 body lost the validation message:"; cat "$WORK/err.json"; exit 1; }

echo "== SIGTERM drains cleanly (exit 0)"
kill -TERM "$SRV_PID"
EXIT=0
wait "$SRV_PID" || EXIT=$?
SRV_PID=
[[ "$EXIT" == 0 ]] || { echo "simserver exited $EXIT on SIGTERM"; exit 1; }

echo "simserver smoke: ok"
