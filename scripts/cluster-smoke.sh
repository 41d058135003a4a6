#!/bin/sh
# Cluster smoke gate: a 1000-stream load sharded across a 4-node simulated
# fleet under a seeded cluster event plan (node joins, graceful leaves,
# blackouts forcing cross-node failover, stream migrations), executed twice
# under the race detector — the second time with real parallelism pinned to
# one CPU. The -smoke flag makes each run exit non-zero unless the
# conservation identity holds: offered = served + dropped with lost=0 and
# at least one node standing. This script additionally requires the two
# runs' stdout (the cluster report and the merged metrics snapshot) to be
# byte-identical, which is the cluster simulator's determinism contract:
# sharding, placement, failover and migration all live on the virtual
# clock, so neither the run nor the machine's core count may leak into the
# output. Model-only serving keeps the 1k-stream fleet to seconds; queue
# dynamics, drops and recovery are exactly the full run's.
set -eu
cd "$(dirname "$0")/.."

FLAGS="-cluster -nodes 4 -streams 1000 -frames 4 -rate 10 -train 8 -val 4 \
	-workers 4 -seed 5 -slo-ms 80 -queue 4 -chaos 2 -model-only -smoke"

out1=$(mktemp) || exit 1
out2=$(mktemp) || exit 1
trap 'rm -f "$out1" "$out2"' EXIT

echo "== cluster run 1 (default parallelism)"
go run -race ./cmd/adascale-serve $FLAGS >"$out1"

echo "== cluster run 2 (GOMAXPROCS=1)"
GOMAXPROCS=1 go run -race ./cmd/adascale-serve $FLAGS >"$out2"

if ! cmp -s "$out1" "$out2"; then
	echo "cluster-smoke: output diverged between runs/core counts:" >&2
	diff "$out1" "$out2" >&2 || true
	exit 1
fi
echo "cluster smoke: byte-identical across runs and core counts"
