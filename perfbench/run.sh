#!/usr/bin/env bash
# Builds perfbench and bbserve from this checkout's sources and runs
# perfbench with the given arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload pipeline --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	TMPDIR="$build/tmp" GOFLAGS= GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
go build -o "$build/bin/bbserve" ./cmd/bbserve >&2
exec "$build/bin/perfbench" "$@"
