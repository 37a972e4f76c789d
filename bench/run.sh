#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload serve-discover --seed 1 --seconds 20 --trace 0
#
# The build cache, the Go configuration directory, temporary files and the
# binary all stay under .bench_build/ in the current directory, and no
# module download is ever attempted: the benchmark imports only the
# repository and the standard library. Outside a full checkout the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C bench build -o "$out/dimebench" .
exec "$out/dimebench" "$@"
