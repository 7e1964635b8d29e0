#!/usr/bin/env bash
# Builds nimbusd and the benchmark program from the checkout in the current
# directory, then runs the benchmark with this script's arguments:
#
#   bash perfbench/run.sh --daemon-flags='-rate=0 -journal-sync=group -addr=127.0.0.1:{port}' \
#       --workload buy-narrow --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and every run's files stay under
# .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/nimbusd || ! -d internal/registry || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a nimbus checkout" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

go build -o "$build/bin/nimbusd" ./cmd/nimbusd
go -C perfbench build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" -root "$PWD" -nimbusd "$build/bin/nimbusd" "$@"
