#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; this is
# the command BENCHMARK.json names. The benchmark is a module of its own
# (benchmark/go.mod) that replaces the `adascale` module with the checkout's
# root. Everything the toolchain writes (build cache, temporary files, the
# binary, span files) stays under .bench_build, so a run reads and writes only
# inside its checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [[ ! -f go.mod ]]; then
	echo "benchmark/run.sh: no go.mod in $PWD: the program under test is not in this checkout" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
# With a fresh config directory the go command would start a detached
# telemetry child (setsid, reparented to init) that outlives it; mode "off"
# makes it start none, so no process survives this script on any path.
echo off > "$build/config/go/telemetry/mode"
go -C benchmark build -o "$build/adascale-benchmark" .
exec "$build/adascale-benchmark" "$@"
