#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
# Run from the repository root:
#   bash gpmlbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, traces and the durable store.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/gpmlbench" && go build -o "$out/gpmlbench" .)
exec "$out/gpmlbench" --out "$out" "$@"
