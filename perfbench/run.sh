#!/usr/bin/env bash
# Builds the benchmark and the cabled binary it drives from the sources of
# the checkout this is run from, then runs one workload:
#
#   bash perfbench/run.sh --workload table2 --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build and module caches, Go's config directory and
# the child's temporary snapshot directories all stay under .bench_build in
# the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # go telemetry and env files
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
go build -o "$out/cabled" ./cmd/cabled
exec "$out/perfbench" -cabled "$out/cabled" -tmp "$out/tmp" -root "$root" "$@"
