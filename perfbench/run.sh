#!/usr/bin/env bash
# Builds the perfbench command from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload place-rack4096 --seed 1 --seconds 30 --trace 0
#
# The build and everything it caches stay in .bench_build/ under the
# current directory. Without the repository around perfbench/ the build
# fails, and so does this script.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOENV=off
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" # the go command's telemetry counters

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -workdir "$out" "$@"
