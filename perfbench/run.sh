#!/usr/bin/env bash
# Builds the repository benchmark and cmd/spmvserve from source, then
# runs one workload. Run from the root of an spmvtuner checkout:
#
#   bash perfbench/run.sh --workload tune-cold --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and scratch files stay under
# .bench_build in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -d cmd/spmvserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of an spmvtuner checkout" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=

(cd perfbench && go build -o "$out/perfbench" .)
go build -o "$out/spmvserve" ./cmd/spmvserve
exec "$out/perfbench" -spmvserve "$out/spmvserve" -out "$out/perfbench-run" "$@"
