#!/usr/bin/env bash
# Builds expelload from source inside the checkout and runs it with the
# driver's arguments. Everything it writes — Go's build cache, the binary,
# the disk stores the workloads create — stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/stores"

export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off

go build -C "$root/benchmarks" -o "$out/expelload" ./expelload
exec "$out/expelload" -store-root "$out/stores" "$@"
