package adascale_test

import (
	"math"
	"strings"
	"testing"

	"adascale"
)

// TestPublicAPIEndToEnd drives the documented public surface: generate,
// build, run the protocols the facade exports, evaluate — the quickstart
// contract.
func TestPublicAPIEndToEnd(t *testing.T) {
	cfg := adascale.VIDLike(9)
	cfg.FramesPerSnippet = 4
	ds, err := adascale.Generate(cfg, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	sys := adascale.Build(ds, adascale.DefaultBuildConfig())
	if sys.Detector == nil || sys.Regressor == nil {
		t.Fatal("Build returned an incomplete system")
	}

	adascale.SetWorkers(3)
	t.Cleanup(func() { adascale.SetWorkers(0) })
	outs := adascale.RunDataset(ds.Val, adascale.AdaScaleRunner(sys.Detector, sys.Regressor))
	adascale.SetWorkers(0)
	if len(outs) != 3*4 {
		t.Fatalf("outputs = %d", len(outs))
	}
	serial := adascale.RunAdaScale(sys.Detector, sys.Regressor, &ds.Val[0])
	for i := range serial {
		if outs[i].Scale != serial[i].Scale {
			t.Fatalf("output %d: pooled scale %d, RunAdaScale %d", i, outs[i].Scale, serial[i].Scale)
		}
	}
	res := adascale.Evaluate(adascale.ToEval(outs), len(cfg.Classes))
	if res.MAP < 0 || res.MAP > 1 {
		t.Fatalf("mAP %v out of range", res.MAP)
	}
	if adascale.MeanRuntimeMS(outs) <= 0 || adascale.MeanScale(outs) <= 0 {
		t.Fatal("degenerate runtime accounting")
	}

	// Other protocols are reachable and well-formed.
	ssDet := adascale.NewSSDetector(&ds.Config)
	if len(adascale.RunDataset(ds.Val[:1], adascale.FixedRunner(ssDet, 600))) != 4 {
		t.Fatal("FixedRunner broken")
	}
	if len(adascale.RunDataset(ds.Val[:1], adascale.DFFRunner(sys.Detector, 600, adascale.DefaultDFFConfig()))) != 4 {
		t.Fatal("DFFRunner broken")
	}
	if len(adascale.RunDataset(ds.Val[:1], adascale.DFFAdaptiveRunner(sys.Detector, sys.Regressor, adascale.DefaultDFFConfig()))) != 4 {
		t.Fatal("DFFAdaptiveRunner broken")
	}
	frames := [][]adascale.Detection{{{Box: adascale.Box{X1: 0, Y1: 0, X2: 10, Y2: 10}, Class: 0, Score: 0.5}}}
	if got := adascale.ApplySeqNMS(frames, adascale.SeqNMSOptions{}); len(got) != 1 {
		t.Fatal("ApplySeqNMS broken")
	}
}

// TestClusterPublicAPI drives the cluster-scale surface exported at the
// root: generate an event plan and run a small sharded fleet that must
// conserve every offered frame.
func TestClusterPublicAPI(t *testing.T) {
	plan, err := adascale.GenClusterPlan(adascale.ClusterPlanConfig{
		Seed: 3, HorizonMS: 1000, Rate: 2, Nodes: 2, Streams: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil {
		t.Fatal("nil generated plan")
	}
	if _, err := adascale.GenClusterPlan(adascale.ClusterPlanConfig{HorizonMS: 1000, Rate: math.Inf(1), Nodes: 2, Streams: 4}); err == nil || !strings.Contains(err.Error(), "Rate") {
		t.Fatalf("GenClusterPlan at an infinite rate = %v, want an error naming Rate", err)
	}

	cfg := adascale.VIDLike(9)
	cfg.FramesPerSnippet = 4
	ds, err := adascale.Generate(cfg, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	sys := adascale.Build(ds, adascale.DefaultBuildConfig())
	load, err := adascale.GenLoad(ds.Val, adascale.LoadConfig{Streams: 4, FPS: 15, FramesPerStream: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := adascale.NewCluster(sys.Detector, sys.Regressor, adascale.ClusterConfig{
		Nodes: 2, EpochMS: 400, Plan: plan,
		Node: adascale.ServeConfig{
			Workers: 2, QueueDepth: 4, SLOMS: 100,
			Resilient: adascale.DefaultResilientConfig(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := cl.Run(load)
	if rep.Lost() != 0 {
		t.Fatalf("cluster lost %d frames", rep.Lost())
	}
	if rep.Offered != 24 {
		t.Fatalf("offered %d frames, want 24", rep.Offered)
	}
	var nr adascale.ClusterNodeReport
	if len(rep.PerNode) == 0 {
		t.Fatal("no per-node rollups")
	}
	nr = rep.PerNode[0]
	if nr.EpochsUp == 0 && nr.Served > 0 {
		t.Fatal("node served frames in zero epochs")
	}
}
