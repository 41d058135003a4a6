# Tier-1 gate: everything a commit must pass. `make check` is what CI and
# reviewers run; scripts/check.sh is the same thing for environments
# without make.

GO ?= go

.PHONY: check ci fmt vet build cross-build test race bench microbench fuzz-smoke serve-smoke chaos-smoke http-smoke cluster-smoke bench-smoke golden loc

check: fmt vet build cross-build race fuzz-smoke serve-smoke chaos-smoke http-smoke cluster-smoke bench-smoke

# CI entry point: the same gates as `check` but fail-slow — every gate
# runs even after a failure so one push reports all breakage at once,
# with GitHub Actions error annotations (and no color/TTY decoration). The
# log ends with the `loc` table.
ci:
	CHECK_CI_MODE=1 ./scripts/check.sh

# Non-test Go and assembly lines per package and in total (internal/, cmd/,
# adascale.go): what a simplicity PR quotes before and after.
loc:
	@./scripts/loc.sh

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The second line keeps the numeric kernels leaf code: parallelism is across
# frames and snippets, never inside internal/tensor (DESIGN.md §4b).
build:
	$(GO) build ./...
	@! $(GO) list -deps ./internal/tensor | grep -qx adascale/internal/parallel || { echo "internal/tensor must not import internal/parallel"; exit 1; }

# Portability gate: internal/tensor has an amd64 assembly row kernel and a
# `!amd64` file standing in for it, which no test on an amd64 machine
# compiles. Cross-build everything and vet the package for arm64 (works
# offline) so that file cannot rot; `vet` above runs asmdecl on the .s file
# and `race` covers the amd64 path.
cross-build:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor

test:
	$(GO) test ./...

# The race run is the point of the gate: the dataset runner, label
# generation and snippet synthesis fan out across the worker pool by
# default, and -race proves the per-worker clones isolate the stateful
# nn layers. -shuffle=on randomizes test order within each package so
# leaked package-level state (e.g. a SetWorkers override that survived a
# t.Fatal) fails loudly instead of depending on declaration order.
race:
	$(GO) test -race -shuffle=on -timeout 60m ./...

bench:
	$(GO) test -run=^$$ -bench=. -benchmem .

# Kernel-level microbenchmarks: the serial matmul, the tiled A·Bᵀ at the
# regressor's three dW shapes, im2col, the band-tiled convolution at the
# backbone's layer shapes (the log names the row kernel that ran: AVX2
# assembly or the Go tile) vs the historical im2col+matmul lowering, and the
# arena pool — serial kernels, so one CPU — a whole regressor Fit on the
# repository benchmark's 960 labels (the serial three quarters of setup_s),
# then the scheduler alone
# (model-only Run, ns/frame and allocs/frame at 16 / 1000 / 10000 streams,
# plain and under chaos: the curve the dispatch index keeps flat) and with
# real compute at des_serve's shape (ServeRun), a quarter-size cluster_model
# fleet (ClusterRun: ns, allocs and bytes per frame, node runs fanned out over
# both CPUs), a 32-item no-op batch on parallel.Pool (Map: ns and allocs per
# item at workers 1 and 2), the
# random stream with math/rand's figure beside each (seed + 12 draws, a
# frame's 30 000 normals) and a render of the val split (all frames at 600 and
# 128, the motion-blurred ones, a noise fault).
# Informational — run on hot-path changes and in CI for the log; the
# end-to-end gate is the repository benchmark (benchmark/run.sh, declared
# in BENCHMARK.json).
microbench:
	$(GO) test -run=^$$ -bench=. -benchmem -cpu 1 ./internal/tensor
	$(GO) test -run=^$$ -bench=Fit -benchtime=3x -cpu 1 ./internal/regressor
	$(GO) test -run=^$$ -bench='SchedulerModelOnly|ServeRun' -benchtime=3x ./internal/serve
	$(GO) test -run=^$$ -bench=ClusterRun -benchtime=3x ./internal/cluster
	$(GO) test -run=^$$ -bench=Map -benchmem ./internal/parallel
	$(GO) test -run=^$$ -bench=. -cpu 1 ./internal/rng
	$(GO) test -run=^$$ -bench=FrameRender -benchmem -cpu 1 .

# Brief randomized fuzzing on top of the committed seed corpus (the seeds
# themselves already run as regular tests). `go test -fuzz` accepts one
# target per invocation, hence one line per harness.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=^FuzzNMS$$ -fuzztime=5s ./internal/detect
	$(GO) test -run=^$$ -fuzz=^FuzzEvaluate$$ -fuzztime=5s ./internal/eval
	$(GO) test -run=^$$ -fuzz=^FuzzLoadgen$$ -fuzztime=5s ./internal/serve
	$(GO) test -run=^$$ -fuzz=^FuzzIngestDecode$$ -fuzztime=5s ./internal/server
	$(GO) test -run=^$$ -fuzz=^FuzzClusterEvents$$ -fuzztime=5s ./internal/cluster
	$(GO) test -run=^$$ -fuzz=^FuzzConvGeometry$$ -fuzztime=5s ./internal/tensor
	$(GO) test -run=^$$ -fuzz=^FuzzMatMulABT$$ -fuzztime=5s ./internal/tensor
	$(GO) test -run=^$$ -fuzz=^FuzzSeedStream$$ -fuzztime=5s ./internal/rng
	$(GO) test -run=^$$ -fuzz=^FuzzHistogram$$ -fuzztime=5s ./internal/obs

# End-to-end serving gate under the race detector: 200 simulated frames
# across 4 streams at an unloaded rate must serve with zero drops and a
# non-empty metrics snapshot (-smoke exits non-zero otherwise). The
# wall-clock trace puts the one wall-measuring path (worker-side Compute
# timing, the scheduler's span recording) under -race too.
serve-smoke:
	trace=$$(mktemp) && $(GO) run -race ./cmd/adascale-serve -streams 4 -frames 50 -rate 5 \
		-slo-ms 0 -tick-ms 0 -train 8 -val 4 -workers 4 -seed 5 -smoke \
		-trace $$trace -trace-wall; status=$$?; rm -f $$trace; exit $$status

# Fault-tolerance gate: a seeded chaos run (worker kills/stalls, node
# blackout, queue saturation) under -race, twice — once at default
# parallelism, once at GOMAXPROCS=1 — asserting zero lost streams/frames
# and byte-identical output across the two runs.
chaos-smoke:
	./scripts/chaos-smoke.sh

# HTTP transport gate: boot `adascale-serve -http` on an ephemeral port
# under -race, curl the whole API (admission, ingestion, results, probes,
# Prometheus /metrics), then SIGTERM and require a zero-loss graceful
# drain (offered == served + dropped through shutdown).
http-smoke:
	./scripts/http-smoke.sh

# Cluster-scale gate: a 1k-stream / 4-node model-only cluster run under
# -race, twice — asserting zero lost frames through sharding, blackout
# failover and migration, and byte-identical reports across the two runs.
cluster-smoke:
	./scripts/cluster-smoke.sh

# Benchmark-program gate: benchmark/ is a module of its own that the root
# module's build and tests never touch, so a library refactor can break it
# unnoticed until the benchmark driver runs. Vet it, run its unit tests, and
# run every workload at smoke sizes (~10 s in all).
bench-smoke:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...
	bash benchmark/run.sh -smoke -seconds 0.2

# Regenerate every committed conformance artifact after a deliberate
# behaviour change: the golden traces (including the per-stage breakdown,
# the serving stage-snapshot and the full-precision accuracy goldens) and a
# verifying re-run.
# Review the diff like any other code change.
golden:
	$(GO) test ./internal/regress -update
	$(GO) test ./internal/regress
