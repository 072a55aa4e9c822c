#!/usr/bin/env bash
# Builds anonnetd and the perfbench binary from this checkout, then runs
# perfbench with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 5 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off GOENV=off
go build -o "$build/bin/anonnetd" ./cmd/anonnetd
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -anonnetd "$build/bin/anonnetd" -work "$build" "$@"
