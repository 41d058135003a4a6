package adascale_test

// Benchmark harness: one benchmark per paper table/figure (regenerating the
// experiment on a reduced corpus) plus micro-benchmarks for the hot
// components. The experiment benchmarks exist to measure the cost of the
// full regeneration path; the printed tables themselves come from
// cmd/adascale-bench.

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"adascale"
	internal "adascale/internal/adascale"
	"adascale/internal/detect"
	"adascale/internal/dff"
	"adascale/internal/experiments"
	"adascale/internal/flow"
	"adascale/internal/raster"
	"adascale/internal/regressor"
	"adascale/internal/rfcn"
	"adascale/internal/seqnms"
	"adascale/internal/synth"
)

// benchBundle is a reduced-size experiment bundle shared by the table/
// figure benchmarks (building it trains a regressor, so it is done once).
var (
	benchOnce   sync.Once
	benchBundle *experiments.Bundle
	benchSys    *adascale.System
	benchDS     *adascale.Dataset
)

func bundle(b *testing.B) *experiments.Bundle {
	b.Helper()
	benchOnce.Do(func() {
		var err error
		benchBundle, err = experiments.Prepare(experiments.Config{
			Dataset: "vid", TrainSnippets: 16, ValSnippets: 8, Seed: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
		benchSys = benchBundle.DefaultSystem()
		benchDS = benchBundle.DS
	})
	return benchBundle
}

// --- Experiment benchmarks (one per table / figure) ---

func BenchmarkTable1a(b *testing.B) {
	bb := bundle(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb.Table1().Print(io.Discard)
	}
}

func BenchmarkTable1bMiniYTBB(b *testing.B) {
	yb, err := experiments.Prepare(experiments.Config{
		Dataset: "ytbb", TrainSnippets: 12, ValSnippets: 6, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	yb.DefaultSystem()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		yb.Table1().Print(io.Discard)
	}
}

func BenchmarkTable2StrainAblation(b *testing.B) {
	bb := bundle(b)
	bb.Table2() // warm the per-S_train systems outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb.Table2().Print(io.Discard)
	}
}

func BenchmarkTable3RegressorAblation(b *testing.B) {
	bb := bundle(b)
	bb.Table3()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb.Table3().Print(io.Discard)
	}
}

func BenchmarkFig5PRCurves(b *testing.B) {
	bb := bundle(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb.Fig5().Print(io.Discard)
	}
}

func BenchmarkFig6TPFP(b *testing.B) {
	bb := bundle(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb.Fig6().Print(io.Discard)
	}
}

func BenchmarkFig7Pareto(b *testing.B) {
	bb := bundle(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb.Fig7().Print(io.Discard)
	}
}

func BenchmarkFig9ScaleDynamics(b *testing.B) {
	bb := bundle(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb.Fig9().Print(io.Discard)
	}
}

func BenchmarkFig10ScaleDistribution(b *testing.B) {
	bb := bundle(b)
	bb.Table2() // systems shared with Table 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb.Fig10().Print(io.Discard)
	}
}

func BenchmarkQualitativeFig1(b *testing.B) {
	bb := bundle(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb.Qualitative(8).Print(io.Discard)
	}
}

// --- Pipeline benchmarks ---

func BenchmarkAlgorithm1Snippet(b *testing.B) {
	bundle(b)
	sn := &benchDS.Val[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adascale.RunAdaScale(benchSys.Detector, benchSys.Regressor, sn)
	}
}

func BenchmarkFixedScaleSnippet(b *testing.B) {
	bundle(b)
	sn := &benchDS.Val[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		internal.RunFixed(benchSys.Detector, sn, 600)
	}
}

func BenchmarkDFFSnippet(b *testing.B) {
	bundle(b)
	sn := &benchDS.Val[0]
	cfg := adascale.DefaultDFFConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dff.Run(benchSys.Detector, sn, 600, cfg)
	}
}

// BenchmarkRunDatasetSerial is the single-goroutine reference for the
// dataset runner on the Table 1a workload (AdaScale over the val split).
func BenchmarkRunDatasetSerial(b *testing.B) {
	bundle(b)
	run := adascale.AdaScaleRunner(benchSys.Detector, benchSys.Regressor)()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		internal.RunDatasetSerial(benchDS.Val, run)
	}
}

// BenchmarkRunDatasetParallel fans the same workload across the worker
// pool (sub-benchmarks pin the worker count; speedup needs multiple cores
// — with GOMAXPROCS=1 the pool falls back to the serial path).
func BenchmarkRunDatasetParallel(b *testing.B) {
	bundle(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			adascale.SetWorkers(workers)
			b.Cleanup(func() { adascale.SetWorkers(0) })
			factory := adascale.AdaScaleRunner(benchSys.Detector, benchSys.Regressor)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				adascale.RunDataset(benchDS.Val, factory)
			}
		})
	}
}

// --- Component micro-benchmarks ---

func BenchmarkDetect600(b *testing.B) {
	bundle(b)
	f := &benchDS.Val[0].Frames[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSys.Detector.Detect(f, 600)
	}
}

func BenchmarkDetect240(b *testing.B) {
	bundle(b)
	f := &benchDS.Val[0].Frames[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSys.Detector.Detect(f, 240)
	}
}

func BenchmarkBackboneFeatures600(b *testing.B) {
	bundle(b)
	f := &benchDS.Val[0].Frames[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSys.Detector.Features(f, 600)
	}
}

func BenchmarkRegressorForward(b *testing.B) {
	bundle(b)
	f := &benchDS.Val[0].Frames[0]
	feats := benchSys.Detector.Features(f, 600)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSys.Regressor.Forward(feats)
	}
}

func BenchmarkRegressorTrainEpoch(b *testing.B) {
	bundle(b)
	frames := synth.Frames(benchDS.Train)[:8]
	labels := regressor.GenerateLabelsAllScales(benchSys.Detector, frames, regressor.SReg)
	cfg := regressor.DefaultTrainConfig()
	cfg.Epochs = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg := regressor.New(rand.New(rand.NewSource(1)), regressor.DefaultKernels)
		reg.Fit(labels, cfg)
	}
}

func BenchmarkOptimalScaleLabel(b *testing.B) {
	bundle(b)
	frames := synth.Frames(benchDS.Train)[:1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		regressor.GenerateLabelsAllScales(benchSys.Detector, frames, regressor.SReg)
	}
}

// BenchmarkFrameRender renders the val split the way the detector does (into
// one reused image), cycling through the frames so ns/op is the mean frame of
// the corpus — its clutter, its motion blur — not one unblurred frame. The
// sub-benchmarks isolate the blurred frames and a noise fault.
func BenchmarkFrameRender(b *testing.B) {
	bundle(b)
	all := synth.Frames(benchDS.Val)
	var blurred, noisy []*synth.Frame
	for _, f := range all {
		if f.Blur*150/float64(min(f.W, f.H)) >= 0.5 { // box-blur radius ≥ 1 at scale 600
			blurred = append(blurred, f)
		}
		g := *f
		g.Fault = &synth.Fault{Kind: synth.FaultNoise, Severity: 0.6}
		noisy = append(noisy, &g)
	}
	for _, c := range []struct {
		name   string
		frames []*synth.Frame
		short  int
	}{
		{"all@600", all, 150}, {"all@128", all, 32}, {"blurred@600", blurred, 150}, {"noise-fault@600", noisy, 150},
	} {
		b.Run(c.name, func(b *testing.B) {
			if len(c.frames) == 0 {
				b.Skip("no such frame in the val split")
			}
			var buf raster.Image
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.frames[i%len(c.frames)].RenderInto(&buf, c.short, 8000, 4)
			}
		})
	}
}

func BenchmarkOpticalFlow(b *testing.B) {
	bundle(b)
	prev := benchDS.Val[0].Frames[0].Render(90, 8000, 4)
	cur := benchDS.Val[0].Frames[1].Render(90, 8000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flow.Estimate(prev, cur, 8, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNMS300(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	dets := make([]adascale.Detection, 300)
	for i := range dets {
		x, y := rng.Float64()*1000, rng.Float64()*600
		dets[i] = adascale.Detection{
			Box:   adascale.Box{X1: x, Y1: y, X2: x + 50 + rng.Float64()*100, Y2: y + 50 + rng.Float64()*100},
			Class: rng.Intn(30), Score: rng.Float64(),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		detect.NMS(dets, rfcn.NMSThreshold, rfcn.TopK)
	}
}

func BenchmarkSeqNMSSnippet(b *testing.B) {
	bundle(b)
	outs := internal.RunFixed(benchSys.Detector, &benchDS.Val[0], 600)
	frames := make([][]adascale.Detection, len(outs))
	for i := range outs {
		frames[i] = outs[i].Detections
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seqnms.Apply(frames, seqnms.Options{})
	}
}

func BenchmarkEvaluateMAP(b *testing.B) {
	bundle(b)
	outs := adascale.RunDataset(benchDS.Val, adascale.FixedRunner(benchSys.Detector, 600))
	frames := adascale.ToEval(outs)
	n := len(benchDS.Config.Classes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adascale.Evaluate(frames, n)
	}
}
