#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the arguments
# given. Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload paper_hpl --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache, the go command's own state and span
# files stay under .bench_build in the checkout; nothing is fetched from the
# network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$GOTMPDIR"
go -C perfbench build -o "$build/perfbench" .

# The driver measures set-up from this instant: exec, Go runtime and
# package initialisation count towards setup_s.
export PERFBENCH_T0="$EPOCHREALTIME"
exec "$build/perfbench" "$@"
