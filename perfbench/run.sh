#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
# Usage, from the root of the repository:
#
#	bash perfbench/run.sh --workload ingest|query|optimize --seed N --seconds S --trace 0|1
#
# Every build output, scratch file and trace stays under .bench_build/ in the
# checkout: the Go build cache and the go command's own config and telemetry
# files, the binary, the shards' write-ahead logs and the span dumps.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -workdir "$out" "$@"
