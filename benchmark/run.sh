#!/usr/bin/env bash
# Driver entry point (BENCHMARK.json "command"): builds the benchmark from
# source into the checkout's .bench_build directory and runs it from the
# checkout root. The benchmark is a Go module of its own (benchmark/go.mod)
# that reaches the program through a replace directive on the parent module,
# so in a directory without the program's sources the build fails and this
# script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
# Keep every path the go tool writes inside the checkout, and never fetch.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off
go -C "$here" build -o "$build/benchmark" .
cd "$root"
exec "$build/benchmark" "$@"
