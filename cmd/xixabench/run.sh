#!/usr/bin/env bash
# Builds xixabench inside the checkout and runs it with the given
# arguments. BENCHMARK.json's command is `bash cmd/xixabench/run.sh`:
# everything the build and the run write — the Go build cache included —
# stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/bin/xixabench" .
exec "$build/bin/xixabench" "$@"
