#!/usr/bin/env bash
# Builds topobench from source and runs it with the given arguments.
#
#   bash bench/run.sh --workload quick --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh -seed 1 -reps 5 -out set.json
#   bash bench/run.sh compare A.json B.json
#
# Everything the build and the runs write (the Go build cache, the binary,
# temporary output) stays under .bench_build/ at the root of the checkout.
# The benchmark module replaces topocmp with the checkout's root, so the
# build fails, and the script exits non-zero, outside a full checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false

(cd "$root/bench" && go build -o "$build/topobench" ./topobench)
cd "$root"
exec "$build/topobench" "$@"
