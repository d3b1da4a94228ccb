#!/usr/bin/env bash
# Builds the benchmark against the engine sources of this checkout and
# runs it.  Run from the checkout root:
#
#   bash perfbench/run.sh --workload transform-n22 --seed 1 --seconds 10 --trace 0
#
# Every build product, the Go build cache included, stays under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOENV=off
export GOFLAGS=
export CGO_ENABLED=0

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out-dir "$out" "$@"
