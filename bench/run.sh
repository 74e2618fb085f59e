#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs it
# with the given arguments, from the checkout's root:
#
#   bash bench/run.sh -seed 1                  # every workload, untraced
#   bash bench/run.sh -workload noc-vc -trace  # one workload, per-layer split
#   bash bench/run.sh -compare a*.json -- b*.json
#
# Every build and run artifact stays under .bench_build/ in the checkout:
# the Go build cache and temporary files, the binary, CPU profiles, span
# files and the service workload's temporary result cache. The toolchain
# never reaches the network (GOPROXY=off, GOTOOLCHAIN=local); the
# benchmark needs nothing beyond the standard library and this repository.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go -C "$root/bench" build -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
