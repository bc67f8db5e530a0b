#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the toolchain's temporary files, the binary
# and the benchmark's scratch state.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	GOPATH="$build/gopath" HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOTOOLCHAIN=local GOENV=off GOFLAGS=

go -C perfbench build -trimpath -buildvcs=false -o "$build/perfbench" .
exec "$build/perfbench" "$@"
