#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout. Everything it writes (go build cache, binary, journals,
# traces, result files) stays in .bench_build/ of that checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -C "$(dirname "$0")" -o "$build/benchmark" .
exec "$build/benchmark" "$@"
