#!/usr/bin/env bash
# Builds the layered benchmark from source and runs it with the given
# arguments. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload table3-sweep --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain and the benchmark write (build cache, temp
# files, the binary, span dumps) stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --trace-dir "$build/spans" "$@"
