#!/bin/sh
# Chaos smoke gate: a short deterministic chaos run — seeded worker
# kills/stalls, a node blackout and a queue-saturation window on top of a
# loaded serve — executed twice under the race detector, the second time
# with real parallelism pinned to one CPU and metric ticks every 100
# virtual ms. The -smoke flag makes each run exit non-zero on any lost
# stream or lost frame; this script additionally requires the two runs'
# stdout, less the second run's tick lines, to be byte-identical. That is
# the serving supervisor's determinism contract: recovery decisions live on
# the virtual clock, so neither the run nor the machine's core count may
# leak into the output — and ticks only observe the run, so they may
# neither change its final metrics nor stretch its duration.
set -eu
cd "$(dirname "$0")/.."

FLAGS="-streams 3 -frames 15 -rate 20 -train 8 -val 4 -workers 2 -seed 5 \
	-slo-ms 50 -chaos 1 -smoke"

out1=$(mktemp) || exit 1
out2=$(mktemp) || exit 1
ticked=$(mktemp) || exit 1
trap 'rm -f "$out1" "$out2" "$ticked"' EXIT

echo "== chaos run 1 (default parallelism)"
go run -race ./cmd/adascale-serve $FLAGS -tick-ms 0 >"$out1"

echo "== chaos run 2 (GOMAXPROCS=1, ticks every 100 ms)"
GOMAXPROCS=1 go run -race ./cmd/adascale-serve $FLAGS -tick-ms 100 >"$ticked"
if ! grep -q '^--- t=' "$ticked"; then
	echo "chaos-smoke: run 2 printed no tick lines" >&2
	exit 1
fi
grep -v '^--- t=' "$ticked" >"$out2"

if ! cmp -s "$out1" "$out2"; then
	echo "chaos-smoke: output diverged between runs/core counts/tick settings:" >&2
	diff "$out1" "$out2" >&2 || true
	exit 1
fi
echo "chaos smoke: byte-identical across runs, core counts and tick settings"
