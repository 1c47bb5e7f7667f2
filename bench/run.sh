#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh -workload paper-week -seed 42 -seconds 10 -trace 0
#
# Run it from the repository root. The build cache, temporary files and
# the binary stay in .bench_build/ inside the checkout, and the Go
# toolchain is never fetched or upgraded.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off GOPROXY=off
(cd bench && go build -o "$out/geovmp-bench" .)
exec "$out/geovmp-bench" "$@"
