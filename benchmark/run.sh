#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root. The Go build cache, module cache,
# temporary files, the binary and the service workload's journals all stay
# under .bench_build in the checkout, and the toolchain never goes to the
# network.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd benchmark && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
