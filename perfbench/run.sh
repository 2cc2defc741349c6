#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, from the
# root of the checkout:
#
#   bash perfbench/run.sh --workload write --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, WAL data and span dumps. The
# build fails, and so does this script, outside a full checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's own settings and telemetry files
# in the checkout too; no module is downloaded (GOPROXY=off).
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --work "$out/perfbench-work" "$@"
