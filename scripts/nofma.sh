#!/bin/sh
# No-fused-multiply-add gate: the scale regressor's packages, the tensor
# kernels under them, the renderer's raster operations, the box geometry,
# the modelled detector's responses (rfcn), the loss and AP arithmetic
# (detect, scaleopt, eval), the modelled cost and its stage split
# (simclock, adascale) and the serving packages' schedules, fault plans,
# quantiles and rate limits (serve, cluster, faults, obs, server) must
# compile to no fused multiply-add on any architecture whose compiler fuses.
#
# Go lets a compiler fuse x*y + z into one instruction that rounds once where
# the source rounds twice; gc does so on arm64, ppc64le, s390x and riscv64
# (never on amd64), so the same source would train different weights there.
# An explicit conversion, float32(x*y) or float64(x*y), rounds the product
# and forbids the fusion (Go spec, "Arithmetic operators"). This script
# compiles the packages below for those four targets with -gcflags=-S (no
# emulator needed) and fails, naming each source line, on any instruction of
# the FMADD/FMSUB/FNMADD/FNMSUB families.
set -eu
cd "$(dirname "$0")/.."

pkgs="./internal/nn ./internal/regressor ./internal/tensor ./internal/raster ./internal/detect ./internal/rfcn ./internal/scaleopt ./internal/eval ./internal/simclock ./internal/adascale ./internal/serve ./internal/cluster ./internal/faults ./internal/obs ./internal/server"

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

fails=0
for arch in arm64 ppc64le s390x riscv64; do
	# The listing goes to stderr; a cached build replays it.
	if ! GOARCH=$arch go build -gcflags=-S $pkgs >"$tmp" 2>&1; then
		grep -v '^	' "$tmp" >&2
		exit 1
	fi
	fused=$(awk -F '\t' '$3 ~ /^F(N)?M(ADD|SUB)[SD]?$/ { match($2, /\([^()]*\.go:[0-9]+\)/); print substr($2, RSTART + 1, RLENGTH - 2) ": " $3 }' "$tmp" |
		sed "s|$PWD/||" | sort -u)
	if [ -n "$fused" ]; then
		echo "nofma: $arch fuses multiply-adds at:"
		echo "$fused"
		fails=1
	fi
done
[ "$fails" = 0 ] || exit 1
echo "nofma: no fused multiply-add in $pkgs on arm64, ppc64le, s390x, riscv64"
