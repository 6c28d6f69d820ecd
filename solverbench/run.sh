#!/usr/bin/env bash
# Builds the solver benchmark from the source tree it sits in and runs it
# with the given flags. Run from the repository root, e.g.
#
#   bash solverbench/run.sh --workload mesh-nd --seed 7 --seconds 55 --trace 0
#
# Everything the build and the run write (Go build cache, binary, spill
# files, span dumps) goes under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
# The go command keeps its settings and telemetry counters in the user
# config directory; point that inside the build directory too.
export XDG_CONFIG_HOME="$out/config"
# Build offline with the installed toolchain only.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go -C "$(dirname "$0")" build -o "$out/solverbench" .
exec "$out/solverbench" --dir "$out" "$@"
