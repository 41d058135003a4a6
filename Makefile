# Tier-1 gate: everything a commit must pass. `make check` runs
# scripts/check.sh, the one list of gates; `make ci` runs the same list
# fail-slow.

GO ?= go

.PHONY: check ci test bench microbench chaos-smoke http-smoke cluster-smoke golden loc

check:
	./scripts/check.sh

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

test:
	$(GO) test ./...

bench:
	$(GO) test -run=^$$ -bench=. -benchmem .

# Kernel-level microbenchmarks: the tiled A·Bᵀ at the
# regressor's three dW shapes beside tensor.ConvWeightGradInto (the AVX2
# weight-gradient kernel Conv2D.Backward runs) at the same shapes, im2col,
# the band-tiled convolution at the backbone's layer shapes and the
# regressor's branches at 600 and 480 (the log names the run kernel that
# ran: AVX2 assembly or the Go tile) vs the historical
# im2col+matmul lowering, and the arena pool — serial kernels, so one CPU —
# a whole regressor Fit on the
# repository benchmark's 960 labels (the serial part of setup_s),
# then the scheduler alone
# (model-only Run, ns/frame and allocs/frame at 16 / 1000 / 10000 streams,
# plain and under chaos: the curve the dispatch index keeps flat) and with
# real compute at des_serve's shape (ServeRun), each with cpus — process CPU
# time over wall time, how many of the CPUs the run kept busy (ServeRun's
# reads about 1.9 of 2 with frames computed ahead), a quarter-size cluster_model
# fleet (ClusterRun: ns, allocs and bytes per frame and GCs per Run, node
# runs fanned out over both CPUs), its placement alone (RingAssign: 12 000
# keys on 16 nodes after 3 joins, ns per key and allocs), a 32-item no-op
# batch on parallel.Pool
# (Map: ns and allocs per item at workers 1 and 2), one metric sample
# through a resolved handle vs by name (Metrics: inc, setmax, observe), the
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
	$(GO) test -run=^$$ -bench=RingAssign -benchmem ./internal/cluster
	$(GO) test -run=^$$ -bench=Map -benchmem ./internal/parallel
	$(GO) test -run=^$$ -bench=Metrics -benchmem ./internal/obs
	$(GO) test -run=^$$ -bench=. -cpu 1 ./internal/rng
	$(GO) test -run=^$$ -bench=FrameRender -benchmem -cpu 1 .

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

# Regenerate every committed conformance artifact after a deliberate
# behaviour change: the golden traces (including the per-stage breakdown,
# the serving stage-snapshot and the full-precision accuracy goldens) and a
# verifying re-run.
# Review the diff like any other code change.
golden:
	$(GO) test ./internal/regress -update
	$(GO) test ./internal/regress
