#!/usr/bin/env bash
# Driver entry point: builds the benchmark with every Go cache and temp file
# kept under <checkout>/.bench_build, then runs it from the checkout root.
# For interactive use `go run -C benchmark . [flags]` is equivalent.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/dcatch-benchmark" .
cd "$root"
exec "$build/dcatch-benchmark" "$@"
