#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build and the run write stays under .bench_build/ in the
# current directory (the root of a checkout): the Go build cache, the binary
# and the benchmark's scratch data.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "benchmark/run.sh: $root is not the root of a checkout (no go.mod, no internal/): nothing to build" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
