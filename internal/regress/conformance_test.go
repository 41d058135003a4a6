package regress

// The golden-trace conformance suite: every pipeline the repo claims is
// deterministic — Algorithm 1, the resilient degradation ladder, the
// experiment tables/figures, the multi-stream serving layer — is replayed
// at workers 1 and 4 and must reproduce its committed golden trace byte
// for byte. A failure here means either an intended behaviour change
// (rerun with -update and review the diff) or a determinism break (fix the
// code; never update the golden to paper over divergence between worker
// counts — AtWorkers fails before Golden ever sees such a trace).

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"adascale/internal/adascale"
	"adascale/internal/cluster"
	"adascale/internal/experiments"
	"adascale/internal/faults"
	"adascale/internal/serve"
)

var (
	bundleOnce sync.Once
	bundle     *experiments.Bundle
	bundleErr  error
)

// conformanceBundle is the shared reduced-size bundle behind every golden:
// small enough to keep the suite fast, large enough that every method
// disagrees with every other (so the traces actually discriminate).
func conformanceBundle(t *testing.T) *experiments.Bundle {
	t.Helper()
	bundleOnce.Do(func() {
		bundle, bundleErr = experiments.Prepare(experiments.Config{
			Dataset: "vid", TrainSnippets: 12, ValSnippets: 6, Seed: 5,
		})
	})
	if bundleErr != nil {
		t.Fatal(bundleErr)
	}
	return bundle
}

// TestGoldenTraceAdaScale pins Algorithm 1's per-frame scale decisions and
// detection digests over the validation split.
func TestGoldenTraceAdaScale(t *testing.T) {
	b := conformanceBundle(t)
	sys := b.DefaultSystem()
	trace := AtWorkers(t, func() string {
		outs := adascale.RunDataset(b.DS.Val, adascale.AdaScaleRunner(sys.Detector, sys.Regressor))
		return adascale.FormatTrace(outs)
	})
	Golden(t, "trace_adascale", trace)
}

// TestGoldenTraceResilient pins the degradation ladder on a deterministic
// fault-injected stream under a per-frame deadline, including the Health
// accounting on every frame and the aggregate HealthSummary.
func TestGoldenTraceResilient(t *testing.T) {
	b := conformanceBundle(t)
	sys := b.DefaultSystem()
	val, err := faults.Inject(b.DS.Val, faults.Mixed(0.15, 99))
	if err != nil {
		t.Fatal(err)
	}
	cfg := adascale.DefaultResilientConfig()
	cfg.DeadlineMS = 60
	trace := AtWorkers(t, func() string {
		outs := adascale.RunDataset(val, adascale.ResilientRunner(sys.Detector, sys.Regressor, cfg))
		return adascale.FormatTrace(outs) + "summary: " + adascale.Summarize(outs).String() + "\n"
	})
	Golden(t, "trace_resilient", trace)
}

// TestGoldenExperiments pins the rendered report of every paper table and
// figure plus the robustness and serving sweeps — the stable serialization
// of each experiment result — and, in exp_accuracy, the mAP values those
// reports round to 0.1, at full precision.
func TestGoldenExperiments(t *testing.T) {
	b := conformanceBundle(t)
	// Reduced sweeps keep the suite fast; the full-size sweeps run from
	// cmd/adascale-bench.
	servingCfg := experiments.ServingConfig{
		StreamCounts:    []int{2, 4},
		SLOs:            []float64{0, 40},
		Workers:         4,
		FPS:             8,
		FramesPerStream: 10,
		QueueDepth:      4,
	}
	chaosCfg := experiments.ChaosConfig{
		Rates:           []float64{0, 2},
		Streams:         3,
		FPS:             12,
		FramesPerStream: 12,
		Workers:         2,
		QueueDepth:      4,
		SLOMS:           80,
	}
	clusterCfg := experiments.ClusterSweepConfig{
		Streams:         []int{30, 90},
		Nodes:           []int{2, 4},
		FPS:             10,
		FramesPerStream: 6,
		Workers:         2,
		EventRate:       2,
	}
	// guarded is one mAP value exp_accuracy.txt carries at full precision.
	type guarded struct {
		key string
		v   float64
	}
	cases := []struct {
		name    string
		produce func() (experiments.Printer, []guarded, error)
	}{
		{"qualitative", func() (experiments.Printer, []guarded, error) { return b.Qualitative(8), nil, nil }},
		{"table1", func() (experiments.Printer, []guarded, error) {
			r := b.Table1()
			return r, []guarded{{"map/adascale", r.Rows[len(r.Rows)-1].MAP}}, nil
		}},
		{"table2", func() (experiments.Printer, []guarded, error) {
			r := b.Table2()
			return r, []guarded{{"map/ada_full_strain", r.Entries[0].Ada.MAP}}, nil
		}},
		{"table3", func() (experiments.Printer, []guarded, error) {
			r := b.Table3()
			// Entry 1 is kernels {1,3}, the paper's default.
			return r, []guarded{{"map/kernels13", r.Entries[1].Ada.MAP}}, nil
		}},
		{"fig5", func() (experiments.Printer, []guarded, error) {
			r := b.Fig5()
			mean := 0.0
			for ci := range r.Categories {
				mean += r.AP[ci][len(r.Methods)-1] // MS/AdaScale
			}
			return r, []guarded{{"map/fig5_adascale_mean", mean / float64(len(r.Categories))}}, nil
		}},
		{"fig6", func() (experiments.Printer, []guarded, error) { return b.Fig6(), nil, nil }},
		{"fig7", func() (experiments.Printer, []guarded, error) {
			r := b.Fig7()
			var g []guarded
			for _, pt := range r.Points {
				if pt.Name == "R-FCN+AdaScale" {
					g = append(g, guarded{"map/rfcn_adascale", pt.MAP})
				}
			}
			return r, g, nil
		}},
		{"fig9", func() (experiments.Printer, []guarded, error) { return b.Fig9(), nil, nil }},
		{"fig10", func() (experiments.Printer, []guarded, error) { return b.Fig10(), nil, nil }},
		{"robustness", func() (experiments.Printer, []guarded, error) {
			r, err := b.Robustness([]float64{0, 0.2}, 60)
			if err != nil {
				return nil, nil, err
			}
			worst := r.Rows[len(r.Rows)-1]
			return r, []guarded{{"map/resilient_worst", worst.Resilient.MAP}, {"map/naive_worst", worst.Naive.MAP}}, nil
		}},
		{"serving", func() (experiments.Printer, []guarded, error) {
			r, err := b.Serving(servingCfg)
			if err != nil {
				return nil, nil, err
			}
			return r, []guarded{{"map/serving_last", r.Rows[len(r.Rows)-1].MAP}}, nil
		}},
		{"chaos", func() (experiments.Printer, []guarded, error) { r, err := b.Chaos(chaosCfg); return r, nil, err }},
		{"cluster", func() (experiments.Printer, []guarded, error) { r, err := b.Cluster(clusterCfg); return r, nil, err }},
	}
	// The exp_*.txt tables print mAP to 0.1; exp_accuracy carries the
	// guarded values at full precision, so a change that moves mAP in the
	// fourth decimal fails here while the tables still pass. It is checked
	// only when every subtest ran: a -run filter must not compare (or, with
	// -update, rewrite) a partial file.
	var accuracy strings.Builder
	ran := 0
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var acc string
			trace := AtWorkers(t, func() string {
				p, gs, err := c.produce()
				if err != nil {
					t.Fatal(err)
				}
				acc = ""
				for _, g := range gs {
					acc += fmt.Sprintf("%s %s %.17g\n", c.name, g.key, g.v)
				}
				return experiments.Render(p) + acc
			})
			Golden(t, "exp_"+c.name, strings.TrimSuffix(trace, acc))
			accuracy.WriteString(acc)
			ran++
		})
	}
	if ran == len(cases) {
		Golden(t, "exp_accuracy", accuracy.String())
	}
}

// TestGoldenServeSnapshot pins the serving layer's final metrics snapshot
// for a small loaded run.
func TestGoldenServeSnapshot(t *testing.T) {
	b := conformanceBundle(t)
	sys := b.DefaultSystem()
	trace := AtWorkers(t, func() string {
		load, err := serve.GenLoad(b.DS.Val, serve.LoadConfig{
			Streams: 3, FPS: 10, FramesPerStream: 8, Seed: 77,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.New(sys.Detector, sys.Regressor, serve.Config{
			Workers: 2, QueueDepth: 4, SLOMS: 100,
			Resilient: adascale.DefaultResilientConfig(),
		})
		if err != nil {
			t.Fatal(err)
		}
		rep := srv.Run(load)
		return rep.Metrics.Snapshot() + "health: " + rep.Summary.String() + "\n"
	})
	Golden(t, "serve_snapshot", trace)
}

// TestGoldenChaosServe pins a full supervised chaos run — seeded worker
// kills/stalls, node blackouts and queue saturation recovered by retry,
// circuit breakers, watchdog and stream migration — byte for byte at
// workers 1 and 4. Every recovery decision lives on the virtual clock, so
// the trace must not depend on the run or the machine's core count, and
// the fault plan must lose no frames (served + dropped = offered exactly).
func TestGoldenChaosServe(t *testing.T) {
	b := conformanceBundle(t)
	sys := b.DefaultSystem()
	trace := AtWorkers(t, func() string {
		load, err := serve.GenLoad(b.DS.Val, serve.LoadConfig{
			Streams: 3, FPS: 15, FramesPerStream: 12, Seed: 77,
		})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := faults.GenSystemPlan(faults.ScaledSystemConfig(1.5, 41, 1400, 2))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.New(sys.Detector, sys.Regressor, serve.Config{
			Workers: 2, QueueDepth: 4, SLOMS: 80,
			Resilient: adascale.DefaultResilientConfig(),
			Chaos:     plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep := srv.Run(load)
		if n := rep.Lost(); n != 0 {
			t.Fatalf("chaos run lost %d frames (neither served nor dropped)", n)
		}
		return rep.Metrics.Snapshot() + "health: " + rep.Summary.String() + "\n"
	})
	Golden(t, "serve_chaos", trace)
}

// TestGoldenClusterSnapshot pins a full cluster simulation — streams
// sharded across simulated nodes by the bounded-load ring, a blackout that
// outlives its epoch (cross-node failover carrying session checkpoints), a
// node join, a graceful leave and a forced stream migration — byte for
// byte at workers 1 and 4. The trace is the cluster report (which carries
// the conservation identity: lost=0) plus the merged cluster-wide metrics
// snapshot.
func TestGoldenClusterSnapshot(t *testing.T) {
	b := conformanceBundle(t)
	sys := b.DefaultSystem()
	plan := &cluster.Plan{Events: []cluster.Event{
		{AtMS: 100, Kind: cluster.EvJoin},
		{AtMS: 150, Kind: cluster.EvBlackout, Node: 1, DurationMS: 700},
		{AtMS: 700, Kind: cluster.EvMigrate, Stream: 2},
		{AtMS: 900, Kind: cluster.EvLeave, Node: 0},
	}}
	trace := AtWorkers(t, func() string {
		load, err := serve.GenLoad(b.DS.Val, serve.LoadConfig{
			Streams: 8, FPS: 15, FramesPerStream: 14, Seed: 77,
		})
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(sys.Detector, sys.Regressor, cluster.Config{
			Nodes: 3, EpochMS: 400, Plan: plan,
			Node: serve.Config{
				Workers: 2, QueueDepth: 4, SLOMS: 80,
				Resilient: adascale.DefaultResilientConfig(),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		rep := cl.Run(load)
		if n := rep.Lost(); n != 0 {
			t.Fatalf("cluster run lost %d frames (neither served nor dropped)", n)
		}
		if rep.Failovers == 0 {
			t.Fatal("golden cluster plan produced no cross-node failover")
		}
		return rep.String() + rep.Metrics.Snapshot()
	})
	Golden(t, "cluster_snapshot", trace)
}
