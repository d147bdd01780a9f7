#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments.
# Run from the repository root:
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 45 --trace 0
# Build outputs, the Go caches and temporary files stay in .bench_build.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS= CGO_ENABLED=0
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
