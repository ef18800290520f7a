#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#
#   bash benchmark/run.sh --workload fd_sat --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh -list
#
# Everything it writes stays in the checkout: the binary and Go's build
# and module caches under .bench_build/, records under benchmark/out/.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" -out "$here/out" "$@"
