#!/usr/bin/env bash
# Builds the campaign benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload mission-sweep --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --report 10 --seconds 30     # steadiness table
#
# Everything the build and the runs write stays under .bench_build/ in the
# root: the Go build cache, the binary, journals and trace files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GO111MODULE=on

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --dir "$out" "$@"
