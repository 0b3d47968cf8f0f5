#!/bin/sh
# Tier-1 verification: build, vet, full tests, a race-detector pass over
# the short tests, and a one-iteration benchmark smoke (catches bench
# harness rot without paying for a real measurement — scripts/bench.sh
# does those). Run from the repository root.
set -eux

go build ./...
go vet ./...
go test ./...
go test -race -short ./...
# The parallel-enumeration determinism suite must hold regardless of how
# the Go scheduler interleaves workers: exercise it both pinned to one OS
# thread and with real preemption under the race detector.
GOMAXPROCS=1 go test -run 'TestDeterministic|TestAbortSoundness' ./internal/preimage/
GOMAXPROCS=4 go test -race -run 'TestDeterministic|TestAbortSoundness' ./internal/preimage/
# The simplify equivalence suite is the CI gate for the preprocessor: if
# -simplify changes any engine's enumerated state set on the determinism
# circuits, this fails the build. Run it pinned and preempted like the
# sweep above.
GOMAXPROCS=1 go test -run 'TestSimplify' ./internal/preimage/
GOMAXPROCS=4 go test -race -run 'TestSimplify' ./internal/preimage/
# Multi-worker streams arrive in scheduling order; the server's
# pooled-vs-classic stream equivalence and the allsat parallel suites
# must hold on one thread and under real preemption alike, so a failure
# that only shows on multi-core hosts fails here on any runner.
GOMAXPROCS=1 go test -count=1 -run 'TestPooledServerEquivalentStreams|TestEnumerateSuccessSimplify' ./internal/server/
GOMAXPROCS=4 go test -count=1 -race -run 'TestPooledServerEquivalentStreams|TestEnumerateSuccessSimplify' ./internal/server/
GOMAXPROCS=1 go test -count=1 -run 'Parallel|TestDisjointCountMatchesBDD|TestDisjointBuildsNoBDD' ./internal/allsat/
GOMAXPROCS=4 go test -count=1 -race -run 'Parallel|TestDisjointCountMatchesBDD|TestDisjointBuildsNoBDD' ./internal/allsat/
go test -run '^$' -bench 'Table|ParallelEnumerate|ReachIncremental|Simplify' -benchtime=1x -benchmem .
go test -run '^$' -bench '^BenchmarkRun$' -benchtime=1x -benchmem ./internal/simplify/
# Loadbench smoke: one request per mode through BenchmarkServerLoad
# (scripts/loadbench.sh runs the real measurement). Catches harness rot
# in the pooled-vs-classic server benchmark without paying for 64x2 runs.
go test -run '^$' -bench ServerLoad -benchtime=1x -benchmem ./internal/server/

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
go run ./cmd/benchgen counter:3 > "$SERVE_DIR/counter.bench"
BENCH=$(awk '{printf "%s\\n", $0}' "$SERVE_DIR/counter.bench" | sed 's/"/\\"/g')
curl -sf "http://$ADDR/v1/sessions" \
    -d "{\"name\":\"smoke\",\"bench\":\"$BENCH\",\"target\":[\"000\"]}" | grep -q '"id":"smoke"'
curl -sf -XPOST "http://$ADDR/v1/sessions/smoke/step" | grep -q '"new_states":"1"'
# max-sessions is 1: a second session must evict the first.
curl -sf "http://$ADDR/v1/sessions" \
    -d "{\"name\":\"second\",\"bench\":\"$BENCH\",\"target\":[\"111\"]}" | grep -q '"evicted":\["smoke"\]'
test "$(curl -s -o /dev/null -w '%{http_code}' -XPOST "http://$ADDR/v1/sessions/smoke/step")" = 404
curl -sf "http://$ADDR/debug/stats" | grep -q 'server.requests'
kill -TERM $SERVE_PID
wait $SERVE_PID
grep -q 'serve: drained' "$SERVE_DIR/log"
