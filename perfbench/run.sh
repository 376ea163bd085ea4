#!/usr/bin/env bash
# Builds qbets-serve and the benchmark from this checkout's sources, then
# runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout,
# including the Go build cache; the toolchain never reaches the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
# GOPATH and XDG_CONFIG_HOME keep the module cache and the toolchain's
# local telemetry counters inside the checkout as well.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
[ -f go.mod ] && [ -d cmd/qbets-serve ] || { echo "run.sh: not a repository checkout (no go.mod or cmd/qbets-serve)" >&2; exit 2; }
go build -o "$out/bin/qbets-serve" ./cmd/qbets-serve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -serve-bin "$out/bin/qbets-serve" -work "$out/runs" "$@"
