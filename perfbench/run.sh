#!/usr/bin/env bash
# Builds the benchmark and the mmxd/mmxfleet daemons from this checkout's
# sources, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload suite|serve|campaign --seed N --seconds S --trace 0|1
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/mmxd ] || [ ! -d cmd/mmxfleet ] || [ ! -d internal ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/ and internal/ not found)" >&2
	exit 2
fi
build="$(pwd)/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
go build -o "$build/bin/" ./cmd/mmxd ./cmd/mmxfleet >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" --bin "$build/bin" --out "$build/perfbench" "$@"
