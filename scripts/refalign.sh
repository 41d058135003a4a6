#!/usr/bin/env bash
# Where did the linker put the benchmark's reference loop? The speed factor
# that corrects every time-based figure is the time of main.(*refKernel).run,
# and that loop's speed depends on its start address (ROADMAP item 6): any
# change to the library moves it by a multiple of 32 bytes. Run this at the
# parent and at the change before reading a corrected figure; if the classes
# differ, compare the raw figures (the "raw" fields of a -out record).
#
# Read-only: builds the benchmark the way the driver does (benchmark/run.sh,
# at smoke sizes) and inspects the binary it leaves in .bench_build.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
bash benchmark/run.sh -smoke -seconds 0.2 >/dev/null
line=$(go tool nm .bench_build/adascale-benchmark | grep 'refKernel).run')
echo "$line"
addr=$((16#$(echo "$line" | awk '{print $1}')))
mod=$((addr % 128))
case $mod in
0) class="aligned: factor reads ~0.9-1.1, corrected figures comparable with another aligned tree" ;;
64) class="64 mod 128: factor reads ~1.1-1.2, corrected figures inflated ~1.1-1.2x" ;;
32 | 96) class="32 mod 64: factor reads ~1.3-1.6, corrected figures inflated ~1.45x" ;;
*) class="not a multiple of 32: unexpected, the function is normally 32-byte aligned" ;;
esac
echo "address mod 128 = $mod ($class)"
