#!/usr/bin/env bash
# Builds the repository benchmark from source inside the checkout and
# runs it. Run from the repository root, for example:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, the Go tool's
# temporary files, local telemetry and config, the binary, reports and
# span dumps) stays under .bench_build in the checkout; nothing is
# fetched from the network.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local \
	GOWORK=off GOPROXY=off GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
