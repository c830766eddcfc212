#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; every
# argument goes to the binary (see `bench/run.sh -h`). The Go build cache
# and the binary live in .bench_build/ (git-ignored), so nothing outside
# the checkout is written. Run from the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$root/.bench_build/ndbench" . >&2
exec "$root/.bench_build/ndbench" "$@"
