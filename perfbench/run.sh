#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in, then runs it with the
# given arguments (see perfbench/README.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload paper_q --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout, so the run reads and writes nothing outside it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local
export GOPROXY=off

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
