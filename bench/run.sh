#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json names this
# script. Everything the build writes (compiler cache included) stays in
# .bench_build/ at the repository root, the benchmark's own output in
# bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local
# The go command's settings file and telemetry counters live in the user's
# configuration directory; keep those in the build directory too.
export GOENV=off XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/sjoin-bench" .) >&2
exec "$build/sjoin-bench" -out "$here/out" "$@"
