#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it with the given
# flags, from the root of a checkout:
#
#   bash bench/run.sh --workload sweep-medium --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -runs 5 -o .bench_build/a.json
#   bash bench/run.sh -compare .bench_build/a.json .bench_build/b.json
#
# Every file the Go toolchain writes (build cache, module cache,
# telemetry) and the binary itself stay under .bench_build in the
# checkout. The build fails, and the script exits non-zero, when the
# parent module is missing.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=""
export GOPROXY=off
export GOTOOLCHAIN=local

(cd "$root/bench" && go build -buildvcs=false -o "$build/campaign-bench" .)
exec "$build/campaign-bench" "$@"
