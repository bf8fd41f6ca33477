#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash e2ebench/run.sh --workload poll --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs leave behind stays in .bench_build
# under the repository root (build cache, binary, data dirs).
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" --workdir "$out" "$@"
