#!/bin/sh
# scripts/loadbench.sh — record the serving-layer load benchmark.
#
# Runs BenchmarkServerLoad (internal/server): >=64 complete HTTP
# enumerations per mode, fired from >=8 concurrent client goroutines,
# warm pooled solvers vs fresh build-from-scratch execution (both modes
# run their jobs on the shared scheduler). Converts the output into a
# BENCH_*.json document via cmd/benchjson and prints the pooled/fresh
# throughput and allocation ratios.
#
# The PR gate for the pooled runtime is: pooled >=1.3x requests/sec OR
# <=0.7x bytes allocated per request vs fresh. The script computes both
# and exits 3 if neither holds (the recording is still written, so a
# failed gate leaves evidence).
#
# Usage:
#   scripts/loadbench.sh [out.json]        # default out: BENCH_7.json
#
# Environment knobs:
#   LOAD_REQUESTS   requests per mode, -benchtime Nx   (default: 64)
#   LOAD_COUNT      -count                             (default: 2)
#   BENCH_BASELINE  prior BENCH_*.json embedded as "baseline"
#   BENCH_ALLOW_SINGLE_CORE=1  record on a single-core host anyway
#                   (loud warning + the JSON is annotated); the client
#                   goroutines still overlap there — requests queue at
#                   admission and the warm pool is contended — but the
#                   numbers measure pipelining, not parallel speedup.
set -eu

cd "$(dirname "$0")/.."

OUT=${1:-BENCH_7.json}
REQUESTS=${LOAD_REQUESTS:-64}
COUNT=${LOAD_COUNT:-2}
LABEL=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)

if [ "$REQUESTS" -lt 64 ]; then
    echo "loadbench.sh: LOAD_REQUESTS=$REQUESTS < 64; the recording needs >=64 requests per mode" >&2
    exit 2
fi

EFFECTIVE_PROCS=$(GOMAXPROCS=${GOMAXPROCS:-} go run ./cmd/benchjson -print-gomaxprocs 2>/dev/null || echo 0)
NOTE=""
if [ "$EFFECTIVE_PROCS" -le 1 ]; then
    if [ "${BENCH_ALLOW_SINGLE_CORE:-0}" != "1" ]; then
        echo "loadbench.sh: REFUSING to record the concurrent-load benchmark with GOMAXPROCS=$EFFECTIVE_PROCS." >&2
        echo "loadbench.sh: set BENCH_ALLOW_SINGLE_CORE=1 to record anyway (the JSON will be annotated)." >&2
        exit 2
    fi
    NOTE="single-core host (GOMAXPROCS=$EFFECTIVE_PROCS): the 8 client goroutines overlap via queuing, not parallel execution; ratios measure per-request cost, not multi-core throughput"
    echo "loadbench.sh: WARNING: $NOTE" >&2
fi

TMP=$(mktemp loadbench.XXXXXX.txt)
trap 'rm -f "$TMP"' EXIT

go test -run '^$' -bench ServerLoad -benchmem \
    -benchtime "${REQUESTS}x" -count "$COUNT" ./internal/server/ | tee "$TMP"

set -- -label "$LABEL" -o "$OUT"
if [ -n "${BENCH_BASELINE:-}" ]; then
    set -- "$@" -baseline "$BENCH_BASELINE"
fi
if [ -n "$NOTE" ]; then
    set -- "$@" -note "$NOTE"
fi
go run ./cmd/benchjson "$@" < "$TMP"
echo "wrote $OUT"

# Gate: mean pooled vs mean fresh, from the raw bench lines.
awk '
/^BenchmarkServerLoad\/pooled/  { pn += $3; pb += $5; pc++ }
/^BenchmarkServerLoad\/fresh/   { fn += $3; fb += $5; fc++ }
END {
    if (pc == 0 || fc == 0) { print "loadbench.sh: missing bench lines"; exit 3 }
    tput = (fn / fc) / (pn / pc)      # fresh ns / pooled ns = pooled speedup
    alloc = (pb / pc) / (fb / fc)     # pooled bytes / fresh bytes
    printf "loadbench.sh: pooled throughput %.2fx fresh, %.2fx bytes/request\n", tput, alloc
    if (tput >= 1.3 || alloc <= 0.7) { print "loadbench.sh: gate PASS (>=1.3x throughput or <=0.7x bytes/request)" }
    else { print "loadbench.sh: gate FAIL (need >=1.3x throughput or <=0.7x bytes/request)"; exit 3 }
}' "$TMP"
