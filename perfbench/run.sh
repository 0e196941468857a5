#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload feed-mixed --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, WAL scratch directories and trace
# files all live under .bench_build/ in the current directory, so the
# benchmark reads and writes nothing outside the checkout beyond the Go
# toolchain itself.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
