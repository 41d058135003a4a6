// Command adascale-serve runs the multi-stream serving simulation: it
// trains a small AdaScale system on the synthetic corpus, generates N
// concurrent open-loop video streams, and serves them through the
// internal/serve scheduler — bounded per-stream queues with drop-oldest
// backpressure, per-worker detector/regressor clones, and a per-frame
// latency SLO that walks overloaded streams down the scale ladder.
//
// Usage:
//
//	adascale-serve [-streams 8] [-workers 4] [-slo-ms 50] [-queue 8] \
//	               [-max-streams 0] [-rate 30] [-frames 60] [-tick-ms 500] \
//	               [-dataset vid|ytbb] [-train 12] [-val 8] [-seed 5] \
//	               [-faults 0] [-chaos 0] [-chaos-seed 0] [-smoke] \
//	               [-cluster] [-nodes 4] [-epoch-ms 500] [-model-only] \
//	               [-trace trace.txt] [-pprof localhost:6060] \
//	               [-http addr] [-rate-limit 0] [-burst 0] [-tenant-streams 0]
//
// -http <addr> switches the command from the offline simulation into the
// network serving mode (internal/server): it trains the same system, then
// listens on addr and serves the HTTP API — stream admission, frame
// ingestion, results, health probes and Prometheus /metrics — until
// SIGTERM/SIGINT, when it drains gracefully (admission closes, every
// admitted frame is flushed, then the listener stops) and prints the
// accounting line `drain: offered=N served=M dropped=K lost=0` plus the
// final metrics snapshot. -rate-limit/-burst bound each tenant's request
// rate (token bucket); -tenant-streams caps streams per tenant; -queue,
// -slo-ms, -max-streams and -workers keep their meanings.
//
// -cluster switches to the cluster-scale simulation (internal/cluster): the
// offered streams are sharded across -nodes simulated nodes by a
// bounded-load consistent-hash ring, each node runs its own scheduler +
// supervisor over -epoch-ms placement epochs, and the cluster report rolls
// the fleet up (per-node serving totals, joins/leaves/blackouts, stream
// migrations and cross-node failovers carrying session checkpoints). In
// this mode -chaos <rate> generates the *cluster* event plan — node joins,
// graceful leaves, node blackouts and forced stream migrations at the
// given events/second — instead of the single-node system fault plan, and
// -model-only skips detector compute (frames still cost their modelled
// virtual service time) so 1k-100k stream fleets run in seconds. Under
// -smoke the cluster gate asserts the conservation identity: lost=0,
// offered = served + dropped exactly, with at least one node standing.
//
// -chaos <rate> injects a seeded *system* fault plan on top of the load:
// worker kills and stalls (Poisson at the given intensity), node
// blackouts and queue-saturation windows, all on the virtual clock, with
// the supervision layer (retry + backoff, circuit breakers, watchdog,
// stream migration) recovering. The plan seed derives from the master
// -seed unless -chaos-seed pins it directly. Chaos runs force an explicit
// worker count (default 4 when -workers is 0), since the plan targets
// worker indices.
//
// The master -seed drives the dataset, the fault injection, the arrival
// schedules and the chaos plan; for a fixed flag set the served outputs
// and every printed metric snapshot are byte-identical across runs and
// machines (timings go to stderr). -smoke exits non-zero unless the run
// served every offered frame with no drops and produced a non-empty
// snapshot — the repo's serve-smoke gate. Under -chaos, the smoke gate
// instead asserts zero *lost* streams and frames (drops are expected
// inside saturation windows): every stream keeps serving, and
// offered = served + dropped exactly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"time"

	"adascale/internal/adascale"
	"adascale/internal/cli"
	"adascale/internal/cluster"
	"adascale/internal/faults"
	"adascale/internal/obs"
	"adascale/internal/serve"
	"adascale/internal/server"
	"adascale/internal/synth"
)

func main() {
	var common cli.Common
	common.Register(12, 8)
	streams := flag.Int("streams", 8, "concurrent video sessions to offer")
	sloMS := flag.Float64("slo-ms", 50, "per-frame end-to-end latency SLO in virtual ms (0 = off)")
	queue := flag.Int("queue", 8, "per-stream frame queue depth (drop-oldest beyond it)")
	maxStreams := flag.Int("max-streams", 0, "admission-control capacity (0 = admit all)")
	rate := flag.Float64("rate", 30, "mean per-stream arrival rate, frames/second")
	frames := flag.Int("frames", 60, "frames offered per stream")
	tickMS := flag.Float64("tick-ms", 500, "virtual ms between metric snapshots (0 = final only)")
	faultRate := flag.Float64("faults", 0, "per-frame fault rate injected into the stream content")
	chaosRate := flag.Float64("chaos", 0, "system fault intensity: worker kills/stalls, blackouts, queue saturation (0 = off)")
	chaosSeed := flag.Int64("chaos-seed", 0, "chaos plan seed (0 = derive from -seed)")
	smoke := flag.Bool("smoke", false, "gate mode: exit non-zero on any drop (or, under -chaos, any lost stream/frame) or an empty snapshot")
	clusterMode := flag.Bool("cluster", false, "shard the streams across a simulated node fleet (internal/cluster) instead of one server")
	nodes := flag.Int("nodes", 4, "cluster: initial node count")
	epochMS := flag.Float64("epoch-ms", 500, "cluster: placement epoch length in virtual ms")
	modelOnly := flag.Bool("model-only", false, "cluster: skip detector compute; frames cost modelled virtual time only")
	httpAddr := flag.String("http", "", "serve the HTTP API on this address instead of running the offline simulation (e.g. 127.0.0.1:8080)")
	rateLimit := flag.Float64("rate-limit", 0, "http: per-tenant request rate limit, req/s (0 = off)")
	burst := flag.Int("burst", 0, "http: token-bucket burst for -rate-limit")
	tenantStreams := flag.Int("tenant-streams", 0, "http: max streams per tenant (0 = unlimited)")
	flag.Parse()
	common.Apply("adascale-serve")

	fail := func(err error) { cli.Fail("adascale-serve", err) }
	if err := errors.Join(checkRate("-faults", *faultRate), checkRate("-chaos", *chaosRate)); err != nil {
		fail(err)
	}
	start := time.Now()

	dcfg, err := common.SynthConfig()
	if err != nil {
		fail(err)
	}
	ds, err := synth.Generate(dcfg, common.Train, common.Val)
	if err != nil {
		fail(err)
	}
	fmt.Printf("dataset %s: %d train / %d val snippets, seed %d\n",
		dcfg.Name, len(ds.Train), len(ds.Val), common.Seed)

	sys := adascale.Build(ds, adascale.DefaultBuildConfig())
	fmt.Printf("system ready: regressor %v\n", sys.Regressor)

	if *httpAddr != "" {
		serveHTTP(sys, server.Config{
			Seed:          common.Seed,
			Workers:       common.Workers,
			QueueDepth:    *queue,
			MaxStreams:    *maxStreams,
			TenantStreams: *tenantStreams,
			SLOMS:         *sloMS,
			Rate:          server.RateLimit{RPS: *rateLimit, Burst: *burst},
			Resilient:     adascale.DefaultResilientConfig(),
		}, *httpAddr, fail)
		return
	}

	content := ds.Val
	if *faultRate > 0 {
		if content, err = faults.Inject(ds.Val, faults.Mixed(*faultRate, common.FaultSeed())); err != nil {
			fail(err)
		}
		fmt.Printf("injected faults at rate %.2f\n", *faultRate)
	}

	load, err := serve.GenLoad(content, serve.LoadConfig{
		Streams:         *streams,
		FPS:             *rate,
		FramesPerStream: *frames,
		Seed:            common.LoadSeed(),
	})
	if err != nil {
		fail(err)
	}

	if *clusterMode {
		seed := *chaosSeed
		if seed == 0 {
			seed = common.ChaosSeed()
		}
		runCluster(sys, load, clusterRun{
			nodes: *nodes, epochMS: *epochMS, modelOnly: *modelOnly,
			eventRate: *chaosRate, planSeed: seed, workers: common.Workers,
			queue: *queue, sloMS: *sloMS, smoke: *smoke,
		}, fail)
		fmt.Fprintf(os.Stderr, "wall time: %v\n", time.Since(start).Round(time.Millisecond))
		return
	}

	cfg := serve.Config{
		Workers:    common.Workers,
		QueueDepth: *queue,
		MaxStreams: *maxStreams,
		SLOMS:      *sloMS,
		Resilient:  adascale.DefaultResilientConfig(),
		TickMS:     *tickMS,
		Tracer:     common.Tracer(),
	}
	if *chaosRate > 0 {
		if cfg.Workers <= 0 {
			// The plan targets worker indices; GOMAXPROCS-derived capacity
			// would make the chaos schedule machine-dependent.
			cfg.Workers = 4
			fmt.Println("chaos: forcing -workers 4 (plans need an explicit worker count)")
		}
		seed := *chaosSeed
		if seed == 0 {
			seed = common.ChaosSeed()
		}
		plan, err := faults.GenSystemPlan(faults.ScaledSystemConfig(*chaosRate, seed, serve.LastArrivalMS(load)+500, cfg.Workers))
		if err != nil {
			fail(err)
		}
		cfg.Chaos = plan
		fmt.Printf("chaos: %s\n", plan)
	}
	if *tickMS > 0 {
		cfg.OnTick = func(simMS float64, m *obs.Metrics) {
			fmt.Printf("--- t=%.0fms served=%d dropped=%d p99=%.1fms ---\n",
				simMS, m.Counter("frames/served"), m.Counter("frames/dropped"),
				m.Quantile("latency/ms", 0.99))
		}
	}
	srv, err := serve.New(sys.Detector, sys.Regressor, cfg)
	if err != nil {
		fail(err)
	}

	fmt.Printf("serving %d streams at %.0f fps, %d frames each, SLO %.0f ms, queue %d\n",
		*streams, *rate, *frames, *sloMS, *queue)
	rep := srv.Run(load)

	fmt.Printf("\n=== final metrics (t=%.1fms virtual) ===\n", rep.DurationMS)
	snapshot := rep.Metrics.Snapshot()
	fmt.Print(snapshot)
	if len(rep.Rejected) > 0 {
		fmt.Printf("rejected streams: %v\n", rep.Rejected)
	}
	fmt.Printf("health: %v\n", rep.Summary)
	fmt.Fprintf(os.Stderr, "wall time: %v\n", time.Since(start).Round(time.Millisecond))

	if *smoke {
		if snapshot == "" {
			fail(fmt.Errorf("smoke: empty metrics snapshot"))
		}
		if *chaosRate > 0 {
			// Chaos gate: drops are legitimate (saturation windows shed an
			// arrival's oldest frame), lost streams or frames never are.
			if n := rep.Lost(); n != 0 {
				fail(fmt.Errorf("smoke: %d frames lost (neither served nor dropped)", n))
			}
			for _, sr := range rep.Streams {
				if len(sr.Outputs) == 0 {
					fail(fmt.Errorf("smoke: stream %d lost to the fault plan (served nothing)", sr.ID))
				}
			}
			fmt.Println("chaos smoke: OK")
		} else {
			if n := rep.TotalDropped(); n != 0 {
				fail(fmt.Errorf("smoke: %d frames dropped at an unloaded rate", n))
			}
			if served := rep.Metrics.Counter("frames/served"); served != int64(*streams**frames) {
				fail(fmt.Errorf("smoke: served %d frames, want %d", served, *streams**frames))
			}
			fmt.Println("serve smoke: OK")
		}
	}

	common.WriteTrace("adascale-serve")
}

// checkRate rejects a -faults or -chaos value that is not a rate. Both are
// read only when positive, so a negative or NaN one used to run a clean,
// fault-free simulation and exit 0.
func checkRate(flag string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("%s must be a finite rate >= 0, got %g", flag, v)
	}
	return nil
}

// clusterRun bundles the cluster-mode knobs main hands to runCluster.
type clusterRun struct {
	nodes     int
	epochMS   float64
	modelOnly bool
	eventRate float64
	planSeed  int64
	workers   int
	queue     int
	sloMS     float64
	smoke     bool
}

// runCluster shards the generated load across a simulated node fleet and
// prints the cluster report plus the merged metrics snapshot. For a fixed
// flag set the entire stdout stream is byte-identical across runs and
// machines — the property scripts/cluster-smoke.sh diffs.
func runCluster(sys *adascale.System, load []serve.Stream, opt clusterRun, fail func(error)) {
	if opt.workers <= 0 {
		// Cluster placement needs an explicit per-node capacity;
		// GOMAXPROCS-derived capacity would shard machine-dependently.
		opt.workers = 4
		fmt.Println("cluster: forcing -workers 4 (nodes need an explicit worker count)")
	}
	cfg := cluster.Config{
		Nodes:   opt.nodes,
		EpochMS: opt.epochMS,
		Node: serve.Config{
			Workers:    opt.workers,
			QueueDepth: opt.queue,
			SLOMS:      opt.sloMS,
			Resilient:  adascale.DefaultResilientConfig(),
			ModelOnly:  opt.modelOnly,
		},
	}
	if opt.eventRate > 0 {
		plan, err := cluster.GenPlan(cluster.PlanConfig{
			Seed:      opt.planSeed,
			HorizonMS: serve.LastArrivalMS(load) + opt.epochMS,
			Rate:      opt.eventRate,
			Nodes:     opt.nodes,
			Streams:   len(load),
		})
		if err != nil {
			fail(err)
		}
		cfg.Plan = plan
		fmt.Printf("cluster events: %s\n", plan)
	}
	cl, err := cluster.New(sys.Detector, sys.Regressor, cfg)
	if err != nil {
		fail(err)
	}

	fmt.Printf("cluster: sharding %d streams across %d nodes, epoch %.0f ms, %d workers/node\n",
		len(load), opt.nodes, opt.epochMS, opt.workers)
	rep := cl.Run(load)

	fmt.Printf("\n=== cluster report (t=%.1fms virtual) ===\n", rep.DurationMS)
	fmt.Print(rep.String())
	fmt.Printf("\n=== final metrics ===\n")
	snapshot := rep.Metrics.Snapshot()
	fmt.Print(snapshot)

	if opt.smoke {
		if snapshot == "" {
			fail(fmt.Errorf("smoke: empty metrics snapshot"))
		}
		if n := rep.Lost(); n != 0 {
			fail(fmt.Errorf("smoke: %d frames lost (offered=%d served=%d dropped=%d)",
				n, rep.Offered, rep.Served, rep.Dropped))
		}
		if rep.FinalNodes < 1 {
			fail(fmt.Errorf("smoke: cluster ended with %d nodes", rep.FinalNodes))
		}
		fmt.Println("cluster smoke: OK")
	}
}

// serveHTTP runs the network serving mode: listen, serve the API, drain
// gracefully on SIGTERM/SIGINT, and account for every admitted frame.
func serveHTTP(sys *adascale.System, cfg server.Config, addr string, fail func(error)) {
	srv, err := server.New(sys.Detector, sys.Regressor, cfg)
	if err != nil {
		fail(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fail(err)
	}
	// The resolved address line is the contract scripts/http-smoke.sh (and
	// any operator using :0) parse to find the ephemeral port.
	fmt.Printf("http: listening on %s\n", ln.Addr())

	ctx, stop := cli.SignalContext(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	select {
	case <-ctx.Done():
		stop() // restore default handling: a second signal kills a wedged drain
		fmt.Println("http: signal received, draining")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = srv.Shutdown(shutdownCtx)
		cancel()
		if err != nil {
			fail(fmt.Errorf("shutdown: %w", err))
		}
		if serveErr := <-done; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
			fail(serveErr)
		}
	case err := <-done:
		stop()
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail(err)
		}
	}

	offered, served, dropped := srv.Stats()
	fmt.Printf("drain: offered=%d served=%d dropped=%d lost=%d\n",
		offered, served, dropped, offered-served-dropped)
	fmt.Printf("\n=== final metrics ===\n")
	fmt.Print(srv.Metrics().Snapshot())
	if lost := offered - served - dropped; lost != 0 {
		fail(fmt.Errorf("drain lost %d admitted frames", lost))
	}
}
