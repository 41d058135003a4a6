#!/bin/sh
# benchdiff.sh — compare two adascale-bench JSON reports and fail on
# regression. A regression is a ns/op increase beyond the tolerance
# (default 25%, trailing argument) on the total OR on any single pipeline
# stage (schema v2 localises time regressions to decode/rescale/detect/
# regress/seqnms), an allocs/op increase beyond 10% on the total or any
# stage (schema v3 apportions allocations the same way), or ANY decrease
# of a guarded accuracy metric ("map"-prefixed keys); entries or guarded
# metrics present in the baseline but missing from the candidate also
# fail (lost coverage).
#
# Usage:
#   scripts/benchdiff.sh [-accuracy-only] baseline.json candidate.json [max-time-regress-pct]
#   scripts/benchdiff.sh -selftest
#
# Reports measured on different machines refuse to compare (exit 2) —
# wall-clock across machines is meaningless. Either pass -accuracy-only
# to gate only on the deterministic accuracy metrics (how CI compares a
# fresh run against the committed baseline), or regenerate the baseline
# on this machine and commit it:
#
#   go run ./cmd/adascale-bench -train 16 -val 8 -seed 5 -json BENCH_4.json
#
# -selftest validates the gate itself: it synthesises a candidate whose
# total ns/op is within tolerance but whose detect stage grew 80%, and
# asserts the diff flags exactly that stage; then a candidate whose total
# allocs/op is within tolerance but whose detect stage doubled its
# allocations, and asserts the alloc gate flags that stage too; then the
# same detect-stage alloc double on a "serving"-named entry — the shape
# a dispatch path re-allocating per frame would print — and asserts the
# failure names both the entry and the stage, and that the non-zero exit
# survives being piped into a consumer.
set -eu
cd "$(dirname "$0")/.."

# Gate output is routinely piped (tee/tail in CI); without pipefail the
# pipe's exit code is the consumer's and a failed diff reads as success.
# POSIX sh does not mandate the option, so probe in a subshell first.
if (set -o pipefail) 2>/dev/null; then set -o pipefail; fi

accuracy=""
if [ "${1:-}" = "-accuracy-only" ]; then
	accuracy="-accuracy-only"
	shift
fi

if [ "${1:-}" = "-selftest" ]; then
	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' EXIT
	machine='{"go_version":"go0.0","goos":"linux","goarch":"amd64","num_cpu":1,"gomaxprocs":1}'
	cat >"$tmp/base.json" <<EOF
{"schema":2,"machine":$machine,"entries":[{"name":"selftest","ns_per_op":1000,"allocs_per_op":1,"iters":1,"metrics":{"map/selftest":0.5},"stages_ns_per_op":{"decode":100,"detect":500,"regress":50}}]}
EOF
	cat >"$tmp/cand.json" <<EOF
{"schema":2,"machine":$machine,"entries":[{"name":"selftest","ns_per_op":1050,"allocs_per_op":1,"iters":1,"metrics":{"map/selftest":0.5},"stages_ns_per_op":{"decode":100,"detect":900,"regress":50}}]}
EOF
	# The baseline must self-compare clean...
	go run ./cmd/adascale-bench -diff "$tmp/base.json" -diff-to "$tmp/base.json" >/dev/null
	# ...and the single-stage regression must be flagged and localised.
	if go run ./cmd/adascale-bench -diff "$tmp/base.json" -diff-to "$tmp/cand.json" >/dev/null 2>"$tmp/err"; then
		echo "benchdiff selftest: stage regression NOT flagged" >&2
		exit 1
	fi
	if ! grep -q "stage detect" "$tmp/err"; then
		echo "benchdiff selftest: regression not localised to the detect stage; got:" >&2
		cat "$tmp/err" >&2
		exit 1
	fi
	# Allocation gate (schema v3): total allocs within the 10% tolerance,
	# detect-stage allocations doubled — must fail and name the stage.
	cat >"$tmp/abase.json" <<EOF
{"schema":3,"machine":$machine,"entries":[{"name":"selftest","ns_per_op":1000,"allocs_per_op":1000,"iters":1,"metrics":{"map/selftest":0.5},"stages_ns_per_op":{"decode":100,"detect":500,"regress":50},"stages_allocs_per_op":{"decode":100,"detect":500,"regress":50}}]}
EOF
	cat >"$tmp/acand.json" <<EOF
{"schema":3,"machine":$machine,"entries":[{"name":"selftest","ns_per_op":1000,"allocs_per_op":1050,"iters":1,"metrics":{"map/selftest":0.5},"stages_ns_per_op":{"decode":100,"detect":500,"regress":50},"stages_allocs_per_op":{"decode":100,"detect":1000,"regress":50}}]}
EOF
	go run ./cmd/adascale-bench -diff "$tmp/abase.json" -diff-to "$tmp/abase.json" >/dev/null
	if go run ./cmd/adascale-bench -diff "$tmp/abase.json" -diff-to "$tmp/acand.json" >/dev/null 2>"$tmp/aerr"; then
		echo "benchdiff selftest: alloc regression NOT flagged" >&2
		exit 1
	fi
	if ! grep -q "alloc regression: stage detect" "$tmp/aerr"; then
		echo "benchdiff selftest: alloc regression not localised to the detect stage; got:" >&2
		cat "$tmp/aerr" >&2
		exit 1
	fi
	# Serving entries get the same localisation: a "serving"-named entry
	# whose total allocations sit inside the 10% tolerance but whose
	# detect stage doubled must fail, naming the entry and the stage —
	# this is the gate that catches a dispatch path quietly re-allocating
	# per frame what it should reuse.
	cat >"$tmp/bbase.json" <<EOF
{"schema":3,"machine":$machine,"entries":[{"name":"serving","ns_per_op":1000,"allocs_per_op":1000,"iters":1,"metrics":{"map/serving":0.5},"stages_ns_per_op":{"decode":100,"detect":500,"regress":50},"stages_allocs_per_op":{"decode":100,"detect":500,"regress":50}}]}
EOF
	cat >"$tmp/bcand.json" <<EOF
{"schema":3,"machine":$machine,"entries":[{"name":"serving","ns_per_op":1000,"allocs_per_op":1050,"iters":1,"metrics":{"map/serving":0.5},"stages_ns_per_op":{"decode":100,"detect":500,"regress":50},"stages_allocs_per_op":{"decode":100,"detect":1000,"regress":50}}]}
EOF
	go run ./cmd/adascale-bench -diff "$tmp/bbase.json" -diff-to "$tmp/bbase.json" >/dev/null
	if go run ./cmd/adascale-bench -diff "$tmp/bbase.json" -diff-to "$tmp/bcand.json" >/dev/null 2>"$tmp/berr"; then
		echo "benchdiff selftest: serving-entry alloc regression NOT flagged" >&2
		exit 1
	fi
	if ! grep -q "serving: alloc regression: stage detect" "$tmp/berr"; then
		echo "benchdiff selftest: serving alloc regression not localised to entry+stage; got:" >&2
		cat "$tmp/berr" >&2
		exit 1
	fi
	# Exit-code path through a pipe: the same failing diff piped into a
	# consumer must still exit non-zero wherever pipefail is available
	# (the guard above; skipped silently on shells without the option).
	if (set -o pipefail) 2>/dev/null; then
		if (set -o pipefail; go run ./cmd/adascale-bench -diff "$tmp/bbase.json" -diff-to "$tmp/bcand.json" 2>/dev/null | tail -n 1 >/dev/null); then
			echo "benchdiff selftest: failing diff exit code lost through a pipe" >&2
			exit 1
		fi
	fi
	echo "benchdiff selftest: OK — stage time and stage alloc regressions localised (incl. serving entry), exit codes survive pipes"
	exit 0
fi

if [ "$#" -lt 2 ]; then
	echo "usage: $0 [-accuracy-only] baseline.json candidate.json [max-time-regress-pct]" >&2
	echo "       $0 -selftest" >&2
	exit 2
fi
pct=${3:-25}

exec go run ./cmd/adascale-bench -diff "$1" -diff-to "$2" -max-time-regress "$pct" $accuracy
