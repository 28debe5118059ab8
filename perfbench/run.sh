#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it with the
# given arguments, e.g.:
#   bash perfbench/run.sh --workload write-1shard --seed 1 --seconds 10 --trace 0
# The binary, the Go build cache and all run state stay under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
