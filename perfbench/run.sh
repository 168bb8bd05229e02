#!/usr/bin/env bash
# Builds the benchmark from source and runs it.  Run from anywhere;
# it works from the repository root, where builds, the Go build cache
# and trace files all go under .bench_build/:
#
#   bash perfbench/run.sh --workload grid2d-adi --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
