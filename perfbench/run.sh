#!/usr/bin/env bash
# Builds the perf ledger from source and runs it from the repository
# root; every argument goes to the benchmark:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary stay in
# .bench_build/ of the checkout, and the build never touches the network.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
out=.bench_build/perfbench
mkdir -p "$out/tmp"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" \
    GOTMPDIR="$root/$out/tmp" TMPDIR="$root/$out/tmp" \
    GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$root/$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
