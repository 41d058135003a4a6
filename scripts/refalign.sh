#!/usr/bin/env bash
# Where did the linker put the benchmark's reference loop? The speed factor
# that corrects every time-based figure is the time of main.(*refKernel).run,
# and that loop's speed depends on its start address (ROADMAP item 6): any
# change to the library moves it by a multiple of 32 bytes. The script prints
# the address and its class: 0 mod 128, 64 mod 128 or 32 mod 64 (32 and 96
# mod 128 behave alike). How far a class moves the factor is not stable
# enough to quote: it has changed from run to run and from tree to tree, even
# within one class. Compare corrected figures only between trees in the same
# class; if the classes differ, compare the raw figures (the "raw" fields of
# a -out record).
#
# Usage: scripts/refalign.sh [OTHER_CHECKOUT]
# With a second checkout (say, a copy of the parent commit) both trees are
# built and the script says whether their classes match.
#
# Read-only apart from .bench_build: builds each benchmark the way the driver
# does (benchmark/run.sh, at smoke sizes) and inspects the binary it leaves
# there.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# class DIR prints DIR's loop address and class, and sets cls.
class() {
	bash "$1/benchmark/run.sh" -smoke -seconds 0.2 >/dev/null
	local addr
	addr=$(go tool nm "$1/.bench_build/adascale-benchmark" | awk '$3 == "main.(*refKernel).run" { print $1 }')
	case $((16#$addr % 128)) in
	0) cls="0 mod 128" ;;
	64) cls="64 mod 128" ;;
	32 | 96) cls="32 mod 64" ;;
	*) cls="not a multiple of 32 (unexpected: the function is normally 32-byte aligned)" ;;
	esac
	echo "$1: main.(*refKernel).run at $addr, $cls"
}

class "$PWD"
if [[ $# -eq 0 ]]; then
	echo "compare raw figures if the two trees' classes differ"
	exit 0
fi
here=$cls
class "$(cd "$1" && pwd)"
if [[ $here == "$cls" ]]; then
	echo "same class: corrected figures are comparable"
else
	echo "classes differ: compare raw figures"
fi
