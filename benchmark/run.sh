#!/usr/bin/env bash
# The benchmark's one command: build the benchmark (a Go module of its own,
# next to the program it measures) and run it with the driver's arguments
# from the root of the checkout. Everything the build and the run write
# stays inside the checkout, under .bench_build/ and benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd benchmark && go build -o "$build/ips-benchmark" .)
exec "$build/ips-benchmark" "$@"
