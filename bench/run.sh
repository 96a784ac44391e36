#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it with
# the arguments given. Everything the Go toolchain writes (build cache,
# temporaries, the binary) stays under .bench_build/ in the checkout.
# Run from anywhere: bash bench/run.sh -workload r18-f32-seq -seed 1 -trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/adcnn-bench" ./bench
exec "$build/adcnn-bench" "$@"
