#!/bin/sh
# Tier-1 gate, the one list of gates (`make check` runs this script):
# gofmt cleanliness, vet, build, cross-builds, the reachability audit, and
# the full test suite under the race detector, then the fuzz, serve, chaos,
# HTTP, cluster and bench smokes.
# The race run matters because RunDataset, label generation and snippet
# synthesis all fan out across the worker pool by default.
#
# Locally the gate fails fast: the first broken gate stops the run.
# In CI mode (-ci flag or CHECK_CI_MODE=1, the mode `make ci` and the
# GitHub workflow use) every gate runs even after a failure so one push
# reports all breakage at once, each failure is emitted as a GitHub
# Actions error annotation (::error ...), and the script exits non-zero
# at the end if anything failed.
set -u
cd "$(dirname "$0")/.."

# Gate commands are piped through annotators in some CI setups; without
# pipefail a failing gate upstream of a pipe reads as success. POSIX sh
# does not mandate the option, so probe in a subshell first.
if (set -o pipefail) 2>/dev/null; then set -o pipefail; fi

ci=0
[ "${CHECK_CI_MODE:-0}" = "1" ] && ci=1
[ "${1:-}" = "-ci" ] && ci=1

fails=0
failed() { # failed <gate> <message>
	fails=$((fails + 1))
	if [ "$ci" = 1 ]; then
		echo "::error title=${1}::${2}"
	else
		echo "check.sh: $1 failed: $2" >&2
		exit 1
	fi
}

gate() { # gate <name> <command...>
	name=$1
	shift
	echo "== $name"
	"$@" || failed "$name" "$* (exit $?)"
}

# gofmt reports per file so CI annotates each unformatted file in place.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	if [ "$ci" = 1 ]; then
		for f in $unformatted; do
			echo "::error file=${f}::gofmt needed"
		done
		fails=$((fails + 1))
	else
		echo "gofmt needed on:"
		echo "$unformatted"
		exit 1
	fi
fi

gate "go-vet" go vet ./...
gate "go-build" go build ./...
# The numeric kernels stay leaf code: parallelism is across frames and
# snippets, never inside internal/tensor (DESIGN.md §4b).
gate "tensor-leaf" sh -c '! go list -deps ./internal/tensor | grep -qx adascale/internal/parallel'
# Portability gate: the `!amd64` stand-in for internal/tensor's assembly row
# kernel is compiled by no test on an amd64 machine; cross-building (works
# offline) keeps it from rotting. arm64, ppc64le, s390x and riscv64 are the
# targets whose compilers fuse multiply-adds, where the same source may
# round differently. go-vet above runs asmdecl on the .s file and the race
# run below covers the amd64 path.
gate "cross-build" sh -c 'for arch in arm64 ppc64le s390x riscv64; do GOARCH=$arch go build ./... || exit 1; done'
gate "cross-vet" env GOARCH=arm64 go vet ./internal/tensor
# The regressor trains the same weights, the renderer draws the same pixels,
# the modelled detector scores the same boxes, the cost model charges the
# same milliseconds and the serving packages schedule the same virtual
# instants on those targets too: the packages scripts/nofma.sh lists
# compile to no fused multiply-add on any of the four.
gate "nofma" ./scripts/nofma.sh
# Reachability gate: every non-test function is linked by one of the nine
# programs (the commands, the examples, the benchmark) or allowlisted with a
# reason in scripts/unreached.allow, and no allowlist entry is stale.
gate "unreached" ./scripts/unreached.sh
# -timeout covers the heavy experiment harnesses on small machines: the
# race detector slows the regressor-training loops by ~10x. -shuffle=on
# randomizes test order within each package so leaked package-level state
# (e.g. a SetWorkers override surviving a t.Fatal) fails loudly instead
# of depending on declaration order.
gate "go-test-race" go test -race -shuffle=on -timeout 60m ./...

# Brief randomized fuzzing on top of the committed seed corpus — the NMS
# and evaluator harnesses must hold on degenerate boxes (NaN/Inf
# coordinates, out-of-range classes) far beyond what the unit tests pin,
# the random stream must equal math/rand's from any seed, and a histogram
# must conserve counts and keep its quantiles ordered on any float bits.
gate "fuzz-nms" go test -run='^$' -fuzz='^FuzzNMS$' -fuzztime=5s ./internal/detect
gate "fuzz-evaluate" go test -run='^$' -fuzz='^FuzzEvaluate$' -fuzztime=5s ./internal/eval
gate "fuzz-loadgen" go test -run='^$' -fuzz='^FuzzLoadgen$' -fuzztime=5s ./internal/serve
# The bucketed agenda must order any arrivals — ties, ±0, bursts, a far
# outlier, ±Inf, NaN — exactly as the comparison sort it replaced.
gate "fuzz-agenda" go test -run='^$' -fuzz='^FuzzAgenda$' -fuzztime=5s ./internal/serve
# The queue ring must drop, pop and peek exactly as the slice queue it
# replaced, at any depth schedule.
gate "fuzz-frame-queue" go test -run='^$' -fuzz='^FuzzFrameQueue$' -fuzztime=5s ./internal/serve
gate "fuzz-ingest" go test -run='^$' -fuzz='^FuzzIngestDecode$' -fuzztime=5s ./internal/server
# The ingest scanner must build exactly what encoding/json builds for any
# body it accepts itself.
gate "fuzz-ingest-scan" go test -run='^$' -fuzz='^FuzzIngestScan$' -fuzztime=5s ./internal/server
gate "fuzz-cluster" go test -run='^$' -fuzz='^FuzzClusterEvents$' -fuzztime=5s ./internal/cluster
gate "fuzz-conv" go test -run='^$' -fuzz='^FuzzConvGeometry$' -fuzztime=5s ./internal/tensor
gate "fuzz-matmul-abt" go test -run='^$' -fuzz='^FuzzMatMulABT$' -fuzztime=5s ./internal/tensor
# The weight-gradient entry point, AVX2 kernel and portable lowering alike,
# must give im2col + MatMulABTInto's bits at any geometry.
gate "fuzz-conv-weight-grad" go test -run='^$' -fuzz='^FuzzConvWeightGrad$' -fuzztime=5s ./internal/tensor
# Shapes drawn in row spans must give the per-pixel drawing's image, bit for
# bit, for boxes off the image, clipped, inverted, sub-pixel or huge.
gate "fuzz-draw" go test -run='^$' -fuzz='^FuzzDrawShapes$' -fuzztime=5s ./internal/raster
# Interior flow blocks take a row loop; the field must be the per-pixel
# loop's, bit for bit, at any frame size, block, radius and pixel bits.
gate "fuzz-flow" go test -run='^$' -fuzz='^FuzzFlowEstimate$' -fuzztime=5s ./internal/flow
gate "fuzz-rng" go test -run='^$' -fuzz='^FuzzSeedStream$' -fuzztime=5s ./internal/rng
gate "fuzz-histogram" go test -run='^$' -fuzz='^FuzzHistogram$' -fuzztime=5s ./internal/obs

# The goldens again with fused multiply-add disabled in the runtime: a
# second source for the figures they pin.
gate "fma-off-regress" env GODEBUG=cpu.fma=off go test -count=1 ./internal/regress
# And on the portable kernels: under cpu.avx2=off internal/tensor runs the Go
# conv tile and the im2col + MatMulABTInto weight gradient, which must give
# every golden the AVX2 kernels give it.
gate "avx2-off-regress" env GODEBUG=cpu.avx2=off go test -count=1 ./internal/regress

# End-to-end serving gate under the race detector: 200 simulated frames
# across 4 streams at an unloaded rate must serve with zero drops and a
# non-empty metrics snapshot (-smoke exits non-zero otherwise). -trace
# puts the serving step's span recording under -race too.
smoke_trace=$(mktemp) || exit 1
gate "serve-smoke" go run -race ./cmd/adascale-serve -streams 4 -frames 50 -rate 5 \
	-slo-ms 0 -tick-ms 0 -train 8 -val 4 -workers 4 -seed 5 -smoke \
	-trace "$smoke_trace"
rm -f "$smoke_trace"

# Fault-tolerance gate: a seeded chaos run (worker kills/stalls, node
# blackout, queue saturation) under the race detector, twice — once at
# default parallelism, once at GOMAXPROCS=1 — asserting zero lost
# streams/frames and byte-identical output across the two runs.
gate "chaos-smoke" ./scripts/chaos-smoke.sh

# HTTP transport gate: boot the network serving mode on an ephemeral port
# under the race detector, drive the API with curl (admission quotas,
# typed 400s, ingestion, results, Prometheus /metrics), then SIGTERM and
# require a graceful drain with zero admitted-frame loss.
gate "http-smoke" ./scripts/http-smoke.sh

# Cluster-scale gate: a 1k-stream / 4-node model-only cluster simulation
# under the race detector, twice — asserting zero lost frames through
# sharding, blackout failover and migration, and byte-identical reports
# across the two runs.
gate "cluster-smoke" ./scripts/cluster-smoke.sh

# Benchmark-program gate: benchmark/ is a module of its own that the root
# module's vet, build and tests above never touch, so a library refactor
# can break it unnoticed until the benchmark driver runs. Vet it, run its
# unit tests, and run every workload at smoke sizes.
gate "bench-vet" go -C benchmark vet ./...
gate "bench-test" go -C benchmark test ./...
gate "bench-smoke" bash benchmark/run.sh -smoke -seconds 0.2

# Not a gate: the non-test Go + assembly line count a simplicity PR's "net
# lines go down" is read off, so the claim sits in the log next to the gates
# it passed.
echo "== loc"
./scripts/loc.sh

if [ "$fails" -gt 0 ]; then
	echo "tier-1 gate: $fails gate(s) FAILED" >&2
	exit 1
fi
echo "tier-1 gate: OK"
