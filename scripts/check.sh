#!/usr/bin/env bash
# check.sh — the repo's `make check` equivalent: everything CI (and a
# pre-commit run) needs, in dependency order. Fast failures first.
#
#   scripts/check.sh          # full gate
#   scripts/check.sh -short   # pass flags through to `go test ./...`
#   BENCH=1 scripts/check.sh  # additionally refresh BENCH_interp.json
#                             # (throughput measurement; not part of the gate)
#   BENCH_BASELINE=old.json scripts/check.sh
#                             # additionally measure throughput and fail on a
#                             # >10% geomean regression against old.json
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test ./... $*"
go test "$@" ./...

# perfbench (the repository benchmark) is its own module, so `./...` above
# never compiles it; vet and short-test it so an API change in vm or core
# cannot break the benchmark unseen.
echo "==> (cd perfbench && go vet ./... && go test -short ./...)"
(cd perfbench && go vet ./... && go test -short ./...)

# The goroutine-bearing code — the concurrent suite runner, the memoized
# registry, the mmxd service (cache single-flight, admission queue,
# request cancellation), and the fleet coordinator (prober, retries,
# hedging, scatter-gather) — runs under the race detector.
echo "==> go test -race ./internal/core/... ./internal/suite/... ./internal/server/... ./internal/cluster/..."
go test -race ./internal/core/... ./internal/suite/... ./internal/server/... ./internal/cluster/...

# The image, jpeg and g722 builds and checks read workload inputs and
# reference answers memoized once per process; concurrent builds and
# suite runs must leave those shared buffers untouched.
echo "==> go test -race -run TestSharedWorkloadsStayPristine ./internal/apps"
go test -race -run TestSharedWorkloadsStayPristine ./internal/apps

# The service end-to-end suite: all 21 programs x 4 dispatch modes over
# HTTP byte-equivalent to direct runs, the result cache replaying the same
# sweep byte-identically, the daemon SIGTERM drain, and the spill tier
# surviving a real restart.
echo "==> go test -run 'TestServedReportsMatchDirectRuns|TestResultCacheServesIdenticalBytes|TestDaemonSIGTERMDrain|TestDaemonResultCacheSpillSurvivesRestart' ."
go test -run 'TestServedReportsMatchDirectRuns|TestResultCacheServesIdenticalBytes|TestDaemonSIGTERMDrain|TestDaemonResultCacheSpillSurvivesRestart' .

# The fleet end-to-end suite: a coordinator over real mmxd backends serves
# the whole suite byte-identical, survives a backend dying mid-suite (and
# mid-campaign), keeps repeat requests affine to one warm cache, and shards
# a 216-point ablation campaign with artifacts byte-identical to a
# single-backend reference run.
echo "==> go test -run 'TestFleet' ./internal/cluster"
go test -run 'TestFleet' ./internal/cluster

# Fuzz smoke: a few seconds per target keeps the corpora honest without
# turning the gate into a fuzzing campaign (`go test -fuzz` accepts one
# target per invocation).
echo "==> go test -run '^$' -fuzz FuzzAsmSource -fuzztime 5s ./internal/asm"
go test -run '^$' -fuzz FuzzAsmSource -fuzztime 5s ./internal/asm >/dev/null
echo "==> go test -run '^$' -fuzz FuzzParseRequest -fuzztime 5s ./internal/server"
go test -run '^$' -fuzz FuzzParseRequest -fuzztime 5s ./internal/server >/dev/null
echo "==> go test -run '^$' -fuzz FuzzAsmEndpoint -fuzztime 5s ./internal/server"
go test -run '^$' -fuzz FuzzAsmEndpoint -fuzztime 5s ./internal/server >/dev/null
echo "==> go test -run '^$' -fuzz FuzzParseSuiteRequest -fuzztime 5s ./internal/cluster"
go test -run '^$' -fuzz FuzzParseSuiteRequest -fuzztime 5s ./internal/cluster >/dev/null
echo "==> go test -run '^$' -fuzz FuzzParseCampaignRequest -fuzztime 5s ./internal/campaign"
go test -run '^$' -fuzz FuzzParseCampaignRequest -fuzztime 5s ./internal/campaign >/dev/null
echo "==> go test -run '^$' -fuzz FuzzDispatchThreeWay -fuzztime 5s ./internal/pentium"
go test -run '^$' -fuzz FuzzDispatchThreeWay -fuzztime 5s ./internal/pentium >/dev/null

# The four-way dispatch equivalence (generic / predecoded / block / trace)
# also runs under the race detector: block and trace dispatch share
# predecoded code and per-block caches with the parallel suite runner
# above, and trace dispatch additionally shares the per-CPU trace cache.
echo "==> go test -race -run 'TestDispatchModesAgree|TestDispatchThreeWay' ./internal/vm ./internal/pentium"
go test -race -run 'TestDispatchModesAgree|TestDispatchThreeWay' ./internal/vm ./internal/pentium

# Smoke-run the block- and trace-dispatch benchmarks for a single iteration
# so inner-loop regressions that only bite under benchmarking surface here.
echo "==> go test -run '^$' -bench 'BenchmarkBlockStep|BenchmarkTraceStep' -benchtime 1x ./internal/vm"
go test -run '^$' -bench 'BenchmarkBlockStep|BenchmarkTraceStep' -benchtime 1x ./internal/vm >/dev/null

# Optional: refresh the interpreter-throughput artifact. Wall-clock numbers
# are host-dependent, so this never gates the build.
if [[ "${BENCH:-0}" == "1" ]]; then
    echo "==> scripts/bench.sh"
    scripts/bench.sh
fi

# Optional: measure throughput and gate against a baseline artifact
# (wall-clock comparison — only meaningful on the machine that produced the
# baseline).
if [[ -n "${BENCH_BASELINE:-}" ]]; then
    new="$(mktemp)"
    trap 'rm -f "$new"' EXIT
    echo "==> scripts/bench.sh $new"
    scripts/bench.sh "$new"
    echo "==> scripts/bench_diff.sh $BENCH_BASELINE $new"
    scripts/bench_diff.sh "$BENCH_BASELINE" "$new"
fi

echo "OK"
