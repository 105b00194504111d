#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root; everything it builds or writes stays under .bench_build:
#
#   bash _perfbench/run.sh --workload recurring-steer --seed 1 --seconds 15 --trace 0
#
# The last line of its output is the run's JSON result.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local
(cd "$root/_perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
