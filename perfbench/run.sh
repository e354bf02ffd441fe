#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, from
# the repository root:
#
#   bash perfbench/run.sh --workload serve-flights --seed 1 --seconds 30 --trace 0
#
# Build products, the Go build and module caches, Go's config and
# telemetry directory, and run scratch all stay under .bench_build/ in the
# current directory. The module needs nothing from the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
