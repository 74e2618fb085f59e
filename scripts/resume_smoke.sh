#!/usr/bin/env bash
# Kill-and-resume + cache-reuse smoke for the sweep point cache.
#
# Three runs of one sweep: an uncached reference, a cached run killed
# (SIGINT) as soon as its first point lands on disk, and the resumed run —
# the same command with the same -cachedir — that must (a) print a table
# byte-identical to the reference and (b) only simulate the points the
# killed run didn't finish. A fourth identical run must simulate nothing
# at all — the cache-reuse guarantee.
set -euo pipefail
cd "$(dirname "$0")/.."

SWEEP='hotspot(t=1..8)'
NPOINTS=8
ARGS=(-sweep "$SWEEP" -size tiny -protocols MESI,DeNovo)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cache="$work/cache"

go build -o "$work/trafficsim" ./cmd/trafficsim

echo "== reference run (no cache)"
"$work/trafficsim" "${ARGS[@]}" -q > "$work/ref.txt"

# One worker keeps the killed run serial (the widest window between the
# first persisted point and the last), and the whole kill phase retries:
# on a fast runner the sweep can still finish before the 50ms-granularity
# poll spots the first cache entry and the SIGINT lands, which is a lost
# race, not a failure. Worker count cannot change any result — that is
# the engine's determinism guarantee — so the reference stays comparable.
echo "== cached run, killed after the first point persists"
persisted=
for attempt in 1 2 3 4 5; do
  rm -rf "$cache"
  "$work/trafficsim" "${ARGS[@]}" -cachedir "$cache" -workers 1 -q > /dev/null 2>&1 &
  pid=$!
  for _ in $(seq 200); do
    compgen -G "$cache/*.json" > /dev/null && break
    kill -0 "$pid" 2> /dev/null || break
    sleep 0.05
  done
  kill -INT "$pid" 2> /dev/null || true
  if wait "$pid"; then
    echo "   attempt $attempt: sweep finished before the kill landed; retrying"
    continue
  fi
  compgen -G "$cache/*.json" > /dev/null \
    || { echo "   attempt $attempt: killed before any point persisted; retrying"; continue; }
  n=$(ls "$cache"/*.json | wc -l)
  if [ "$n" -ge "$NPOINTS" ]; then
    echo "   attempt $attempt: all $n points persisted before the kill; retrying"
    continue
  fi
  persisted=$n
  break
done
[ -n "$persisted" ] || { echo "kill never landed mid-sweep in 5 attempts"; exit 1; }
echo "   killed with $persisted point(s) persisted"

echo "== resumed run: table must be byte-identical to the reference"
"$work/trafficsim" "${ARGS[@]}" -cachedir "$cache" > "$work/resumed.txt" 2>"$work/resumed.err"
diff -u "$work/ref.txt" "$work/resumed.txt"
grep -F "$NPOINTS/$NPOINTS points complete ($persisted cached, $((NPOINTS - persisted)) simulated)" "$work/resumed.err" \
  || { echo "resumed run did not reuse the $persisted persisted point(s):"; cat "$work/resumed.err"; exit 1; }

echo "== rerun: a fully cached sweep must simulate zero points"
"$work/trafficsim" "${ARGS[@]}" -cachedir "$cache" > "$work/cached.txt" 2>"$work/cached.err"
diff -u "$work/ref.txt" "$work/cached.txt"
grep -F "$NPOINTS/$NPOINTS points complete ($NPOINTS cached, 0 simulated)" "$work/cached.err" \
  || { echo "rerun simulated points it should have served from cache:"; cat "$work/cached.err"; exit 1; }

# The mesh axis re-dimensions the whole fabric per point, and the point
# key hashes the dimensions — an 8x8 point must persist, reload under
# its own key, and never be confused with the 4x4 point.
echo "== mesh-axis sweep: the 8x8 point caches and reloads under the dims-aware key"
mcache="$work/mesh-cache"
MARGS=(-sweep mesh=4x4,8x8 -router vc -size tiny -benchmarks 'hotspot(t=1)' -protocols MESI)
"$work/trafficsim" "${MARGS[@]}" -q > "$work/mesh-ref.txt"
"$work/trafficsim" "${MARGS[@]}" -cachedir "$mcache" > "$work/mesh-first.txt" 2>"$work/mesh-first.err"
diff -u "$work/mesh-ref.txt" "$work/mesh-first.txt"
grep -F "2/2 points complete (0 cached, 2 simulated)" "$work/mesh-first.err" \
  || { echo "first mesh sweep did not simulate both points:"; cat "$work/mesh-first.err"; exit 1; }
"$work/trafficsim" "${MARGS[@]}" -cachedir "$mcache" > "$work/mesh-cached.txt" 2>"$work/mesh-cached.err"
diff -u "$work/mesh-ref.txt" "$work/mesh-cached.txt"
grep -F "2/2 points complete (2 cached, 0 simulated)" "$work/mesh-cached.err" \
  || { echo "mesh rerun simulated points it should have served from cache:"; cat "$work/mesh-cached.err"; exit 1; }

echo "resume smoke OK"
