#!/usr/bin/env bash
# Builds the benchmark into the checkout and runs it. BENCHMARK.json names
# this script as the benchmark's command; every argument goes to the
# program (see README.md). Everything the build writes — the Go build
# cache included — stays under .bench_build/ in the checkout, and the
# build uses only the installed toolchain and the repository's own code.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
