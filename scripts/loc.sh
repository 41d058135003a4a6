#!/bin/sh
# Non-test source lines per package and in total over internal/, cmd/ and the
# root facade (adascale.go) — the number a simplicity PR's "net line count
# goes down" is read off. Go and Go assembly (*.s) both count: a kernel moved
# into assembly is still code someone maintains. Plain `wc -l`: comments and
# blank lines count, so the figure moves with the code a reader has to get
# through. Run it at two commits and subtract; `make ci` prints it at the end
# of its log.
set -eu
cd "$(dirname "$0")/.."

find internal cmd \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go' -exec dirname {} \; | sort -u | while read -r dir; do
	lines=$(find "$dir" -maxdepth 1 \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go' -exec cat {} + | wc -l)
	printf '%6d  %s\n' "$lines" "$dir"
done | awk -v facade="$(wc -l <adascale.go)" '
	{ print; total += $1 }
	END { printf "%6d  adascale.go\n%6d  total (non-test Go + asm)\n", facade, total + facade }'
