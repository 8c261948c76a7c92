#!/usr/bin/env bash
# Builds cmd/homeserver and the benchmark from this checkout, then runs one
# benchmark invocation. Run it from the repository root:
#
#   bash perfbench/run.sh --workload fleet_stream --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the
# checkout too; it applies to the builds only.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

build() { XDG_CONFIG_HOME="$out/config" go build "$@"; }

build -o "$out/bin/homeserver" ./cmd/homeserver
(cd perfbench && build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
