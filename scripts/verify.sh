#!/bin/sh
# Tier-1 verification: build, vet, full tests, a race-detector pass over
# the short tests, and a one-iteration benchmark smoke (catches bench
# harness rot without paying for a real measurement — scripts/bench.sh
# does those). Run from the repository root.
set -eux

# Formatting gate: every tracked Go file must be gofmt-clean.
test -z "$(gofmt -l $(git ls-files '*.go'))"
go build ./...
go vet ./...
# perfbench is a separate module (replace allsatpre => ../) that imports
# the internal packages: vetting it catches an internal API change that
# would break the benchmark without failing anything above.
(cd perfbench && GOWORK=off go vet ./...)
go test ./...
go test -race -short ./...
# The differential oracle's sweeps of the determinism suite (every
# engine, worker count, simplify mode and runtime checked against
# exhaustive simulation, and against each other cube for cube), the
# preprocessor's frozen-projection and witness checks, the frontier
# walk's Aborted contract over every layer source, and the success
# engine's state-only walk layers against the BDD engine's walks must
# hold regardless of how the Go scheduler interleaves workers:
# exercise them both pinned to one OS thread and with real preemption
# under the race detector. The pinned run sweeps the whole matrix; the
# race run takes -short, which keeps every circuit and worker count but
# trims the matrix's axes: each cell's plain warm run is left out (its
# warm run after an abort stays), and the cube-capped and WithInputs
# slices run Simplify on alone.
ORACLE='TestDeterministic|TestAbortSoundness|TestStreamedProjection|TestParallelEqualsSerial|TestSimplify'
GOMAXPROCS=1 go test -run "$ORACLE|TestWalkAbortContract|TestWalkSuccessMatchesBDD" ./internal/preimage/
GOMAXPROCS=4 go test -race -short -run "$ORACLE|TestWalkAbortContract|TestWalkSuccessMatchesBDD" ./internal/preimage/
# Every fan-out runs as runtime.Group jobs on a scheduler: the pool, the
# incremental sessions and the parallel BMC sweep must hold pinned and
# preempted alike, and so must the success-driven enumerator the pooled
# jobs run on the shared sat kernel.
GOMAXPROCS=1 go test -count=1 ./internal/core/ ./internal/pool/ ./internal/incr/ ./internal/bmc/
GOMAXPROCS=4 go test -count=1 -race ./internal/core/ ./internal/pool/ ./internal/incr/ ./internal/bmc/
# Multi-worker streams arrive in scheduling order; the server's
# pooled-vs-fresh stream equivalence and the allsat parallel suites
# must hold on one thread and under real preemption alike, so a failure
# that only shows on multi-core hosts fails here on any runner. The
# stream writer's timer flush races the handler's writes by design: its
# stall, disconnect and shutdown-drain tests run on both schedules too,
# and so do the /v1/preimage streams that write cubes while the search
# runs.
GOMAXPROCS=1 go test -count=1 -run 'TestPooledServerEquivalentStreams|TestEnumerateSuccessSimplify|TestStream|TestEnumerateStreamsIncrementallyAndDisconnectAborts|TestShutdownDrainsStreamWithTruncatedSummary|TestPreimageStreams|TestPreimageComputeError' ./internal/server/
GOMAXPROCS=4 go test -count=1 -race -run 'TestPooledServerEquivalentStreams|TestEnumerateSuccessSimplify|TestStream|TestEnumerateStreamsIncrementallyAndDisconnectAborts|TestShutdownDrainsStreamWithTruncatedSummary|TestPreimageStreams|TestPreimageComputeError' ./internal/server/
GOMAXPROCS=1 go test -count=1 -run 'Parallel|TestDisjointCountMatchesBDD|TestDisjointBuildsNoBDD' ./internal/allsat/
GOMAXPROCS=4 go test -count=1 -race -run 'Parallel|TestDisjointCountMatchesBDD|TestDisjointBuildsNoBDD' ./internal/allsat/
go test -run '^$' -bench 'Table|Fig|ParallelEnumerate|ReachIncremental|Simplify' -benchtime=1x -benchmem .
go test -run '^$' -bench '^BenchmarkRun$' -benchtime=1x -benchmem ./internal/simplify/
go test -run '^$' -bench '^BenchmarkParseBench$' -benchtime=1x -benchmem ./internal/circuit/
go test -run '^$' -bench '^BenchmarkNewInstance$' -benchtime=1x -benchmem ./internal/trans/
go test -run '^$' -bench '^BenchmarkComputeAllSAT$' -benchtime=1x -benchmem ./internal/preimage/
# The one-pass BENCH parser must match the reference parser on every
# input: a short fuzzing run past the seed corpus that go test covers.
go test -run '^$' -fuzz '^FuzzParseBenchDifferential$' -fuzztime=5000x ./internal/circuit/
# The projection-safe preprocessor must keep the frozen projection, its
# UNSAT claims and its witness reconstruction exact on random small CNFs.
go test -run '^$' -fuzz '^FuzzRunFrozen$' -fuzztime=5000x ./internal/simplify/
# The one 01X pattern parser must never panic and must accept exactly
# the patterns a cube space accepts.
go test -run '^$' -fuzz '^FuzzParseTarget$' -fuzztime=5000x ./internal/trans/
# The oracle's matrix on random small SLike circuits and targets past
# its seed corpus, and hostile request bodies (session JSON among them),
# queries and fence specs against the daemon: no panic, no 5xx, no
# stream without its summary.
# A FuzzOracle input sweeps the whole matrix, so its inputs are not
# minimized.
go test -run '^$' -fuzz '^FuzzOracle$' -fuzztime=4x -fuzzminimizetime=0 ./internal/preimage/
go test -run '^$' -fuzz '^FuzzEnumerateRequest$' -fuzztime=500x ./internal/server/
go test -run '^$' -fuzz '^FuzzPreimageRequest$' -fuzztime=500x ./internal/server/
go test -run '^$' -fuzz '^FuzzSessionRequest$' -fuzztime=500x ./internal/server/
go test -run '^$' -fuzz '^FuzzParseFenceSpec$' -fuzztime=2000x ./internal/server/
# Loadbench smoke: one request per mode through BenchmarkServerLoad
# (scripts/loadbench.sh runs the real measurement). Catches harness rot
# in the pooled-vs-fresh server benchmark without paying for 64x2 runs.
go test -run '^$' -bench ServerLoad -benchtime=1x -benchmem ./internal/server/

# DIMACS CLI smoke: every engine counts the parity fixture, and the one
# cube cap (-max-cubes, carried by the budget) truncates loudly.
for engine in success blocking lifting disjoint; do
    go run ./cmd/allsat -engine $engine testdata/parity5.cnf | grep -q '^solutions (projected minterms): 16$'
done
go run ./cmd/allsat -engine blocking -max-cubes 1 testdata/parity5.cnf | grep -q 'TRUNCATED (cube-limit)'
go run ./cmd/allsat -engine success -max-cubes 1 testdata/parity5.cnf | grep -q 'TRUNCATED (cube-limit)'
# -stats publishes the same counters as the preimage tools (the memo's
# 15 lookups among them), and a repeated projection variable is an
# error, not a panic.
go run ./cmd/allsat -workers 1 -stats -engine success testdata/parity5.cnf | grep -q '^  cache-lookups  *15$'
go run ./cmd/allsat -proj 1,1,2 testdata/parity5.cnf 2>&1 | grep -q 'projection variable 1 listed twice'

# BMC smoke: counter:4 runs from 0000 to 1111 in 15 transitions, found
# by the sequential and the parallel depth sweep alike; within bound 10
# there is no counterexample, which exits 3.
BMC_DIR=$(mktemp -d)
go build -o "$BMC_DIR/bmc" ./cmd/bmc
"$BMC_DIR/bmc" counter:4 0000 1111 | grep -q '^COUNTEREXAMPLE of length 15 '
"$BMC_DIR/bmc" -workers 2 counter:4 0000 1111 | grep -q '^COUNTEREXAMPLE of length 15 '
if "$BMC_DIR/bmc" -bound 10 counter:4 0000 1111 > "$BMC_DIR/out"; then exit 1; else test $? = 3; fi
grep -q '^NO counterexample within bound 10 ' "$BMC_DIR/out"
rm -rf "$BMC_DIR"

# Unrolled k-step smoke: every SAT engine finds the ten states of
# counter:4 that reach XXX1 within two steps, and -stats records the
# run's search counters in the [preimage] registry.
for engine in success blocking lifting disjoint; do
    go run ./cmd/preimage -kstep 2 -engine $engine counter:4 XXX1 | grep -q '^preimage states: 10$'
done
go run ./cmd/preimage -stats -kstep 2 -engine blocking counter:4 XXX1 | grep -q '^  decisions  *[1-9]'

# State-only projection smoke: every engine finds the 48 preimage
# states of slike:3,60,6,4 under 1XXXXX. The blocking engine searches
# over the latches alone, and only over the three that a clause of the
# simplified formula still mentions: it reaches the 48 states in 6
# solutions, each widened to 8 states over the three dropped latches,
# sequentially and with two workers splitting the live latches. A search
# over every latch needs 48 solutions, one per state; one over
# (state, input) pairs needs 384.
for engine in success blocking lifting disjoint bdd; do
    go run ./cmd/preimage -engine $engine slike:3,60,6,4 1XXXXX | grep -q '^preimage states: 48$'
done
for workers in 1 2; do
    OUT=$(go run ./cmd/preimage -workers $workers -stats -engine blocking slike:3,60,6,4 1XXXXX)
    echo "$OUT" | grep -q '^preimage states: 48$'
    echo "$OUT" | grep -q 'solutions: 6$'
done
# The BDD engine runs one relational product whatever the worker count:
# its cubes, count and node count do not depend on -workers.
BDD_DIR=$(mktemp -d)
go run ./cmd/preimage -workers 1 -engine bdd slike:3,60,6,4 1XXXXX > "$BDD_DIR/w1"
go run ./cmd/preimage -workers 2 -engine bdd slike:3,60,6,4 1XXXXX > "$BDD_DIR/w2"
diff "$BDD_DIR/w1" "$BDD_DIR/w2"
rm -rf "$BDD_DIR"

# Reach smoke: backward reachability on the success engine searches each
# layer over the latches alone, fresh and on one incremental session;
# both reach the 64 states of arbiter:4 that can reach 1XXXXX.
go run ./cmd/reach -workers 1 arbiter:4 1XXXXX | grep -q 'total states: 64   fixpoint: true'
go run ./cmd/reach -workers 1 -incremental arbiter:4 1XXXXX | grep -q 'total states: 64   fixpoint: true'

# Service smoke test: boot cmd/serve on a random port, stream a small
# enumeration, create/step/evict a session, and drain on SIGTERM. This
# exercises the daemon wiring (listener, mux, shutdown order) that the
# package's httptest-based suite cannot see.
SERVE_DIR=$(mktemp -d)
trap 'kill $SERVE_PID 2>/dev/null || true; rm -rf "$SERVE_DIR"' EXIT
go build -o "$SERVE_DIR/serve" ./cmd/serve
"$SERVE_DIR/serve" -addr 127.0.0.1:0 -max-sessions 1 > "$SERVE_DIR/log" &
SERVE_PID=$!
for i in $(seq 1 50); do
    ADDR=$(sed -n 's/^serve: listening on //p' "$SERVE_DIR/log")
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ]
printf 'p cnf 3 2\n1 2 0\n-1 3 0\n' > "$SERVE_DIR/f.cnf"
curl -sfN --data-binary @"$SERVE_DIR/f.cnf" "http://$ADDR/v1/enumerate?engine=disjoint" > "$SERVE_DIR/stream"
grep -q '"type":"header"' "$SERVE_DIR/stream"
grep -q '"type":"cube"' "$SERVE_DIR/stream"
grep -q '"truncated":false' "$SERVE_DIR/stream"
# A repeated projection variable is a client error, answered with 400.
test "$(curl -s -o /dev/null -w '%{http_code}' --data-binary @"$SERVE_DIR/f.cnf" "http://$ADDR/v1/enumerate?proj=1,1")" = 400
go run ./cmd/benchgen counter:3 > "$SERVE_DIR/counter.bench"
BENCH=$(awk '{printf "%s\\n", $0}' "$SERVE_DIR/counter.bench" | sed 's/"/\\"/g')
curl -sf "http://$ADDR/v1/sessions" \
    -d "{\"name\":\"smoke\",\"bench\":\"$BENCH\",\"target\":[\"000\"]}" | grep -q '"id":"smoke"'
curl -sf -XPOST "http://$ADDR/v1/sessions/smoke/step" | grep -q '"new_states":"1"'
# max-sessions is 1: a second session must evict the first.
curl -sf "http://$ADDR/v1/sessions" \
    -d "{\"name\":\"second\",\"bench\":\"$BENCH\",\"target\":[\"111\"]}" | grep -q '"evicted":\["smoke"\]'
test "$(curl -s -o /dev/null -w '%{http_code}' -XPOST "http://$ADDR/v1/sessions/smoke/step")" = 404
# A truncated layer ends a session's walk: the 1ns deadline truncates the
# first step, and the second step must repeat the truncation instead of
# claiming a fixpoint.
curl -sf "http://$ADDR/v1/sessions" \
    -d "{\"name\":\"cut\",\"bench\":\"$BENCH\",\"target\":[\"000\"],\"timeout\":\"1ns\"}" | grep -q '"id":"cut"'
curl -sf -XPOST "http://$ADDR/v1/sessions/cut/step" | grep -q '"truncated":true'
CUT=$(curl -sf -XPOST "http://$ADDR/v1/sessions/cut/step")
echo "$CUT" | grep -q '"truncated":true'
case "$CUT" in *'"fixpoint":true'*) exit 1 ;; esac
curl -sf "http://$ADDR/debug/stats" | grep -q 'server.requests'
kill -TERM $SERVE_PID
wait $SERVE_PID
grep -q 'serve: drained' "$SERVE_DIR/log"
