package scaleopt

import (
	"testing"

	"adascale/internal/detect"
	"adascale/internal/rfcn"
	"adascale/internal/synth"
)

// TestNaiveMetricFavoursFewerForegrounds reproduces the failure mode the
// paper designs around: scale A detects both objects well (two foreground
// boxes, each contributing cls+reg loss); scale B detects only one. The
// naive sum rewards B for detecting less; the equalised metric does not.
func TestNaiveMetricFavoursFewerForegrounds(t *testing.T) {
	gts := []detect.GroundTruth{
		{Box: detect.Box{X1: 0, Y1: 0, X2: 100, Y2: 100}, Class: 0},
		{Box: detect.Box{X1: 300, Y1: 300, X2: 400, Y2: 400}, Class: 1},
	}
	good := func(b detect.Box, class int) rfcn.RawDetection { return det(b, class, 0.9, 3) }

	rBoth := buildResult(600,
		good(detect.Box{X1: 1, Y1: 1, X2: 100, Y2: 100}, 0),
		good(detect.Box{X1: 301, Y1: 301, X2: 400, Y2: 400}, 1),
	)
	rOne := buildResult(240,
		good(detect.Box{X1: 1, Y1: 1, X2: 100, Y2: 100}, 0),
	)

	_, naiveBest := CompareNaive([]*rfcn.Result{rBoth, rOne}, gts, DefaultLambda)
	if naiveBest != 240 {
		t.Fatalf("naive metric should favour the under-detecting scale, picked %d", naiveBest)
	}

	_, fairBest := Compare([]*rfcn.Result{rBoth, rOne}, gts, DefaultLambda)
	if fairBest != 600 {
		t.Fatalf("equalised metric should not punish detecting both objects, picked %d", fairBest)
	}
}

// TestNaiveVsEqualisedOnDataset: across a synthetic corpus the naive metric
// must systematically choose smaller scales than the paper's metric (the
// bias direction the paper states).
func TestNaiveVsEqualisedOnDataset(t *testing.T) {
	cfg := synth.VIDLike(41)
	cfg.FramesPerSnippet = 4
	ds, err := synth.Generate(cfg, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	detr := rfcn.New(&ds.Config, []int{600, 480, 360, 240})
	scales := []int{600, 480, 360, 240}
	var naiveSum, fairSum float64
	n := 0
	for _, f := range synth.Frames(ds.Train) {
		results := make([]*rfcn.Result, len(scales))
		for i, s := range scales {
			results[i] = detr.Detect(f, s)
		}
		gts := f.GroundTruth()
		_, nb := CompareNaive(results, gts, DefaultLambda)
		_, fb := Compare(results, gts, DefaultLambda)
		naiveSum += float64(nb)
		fairSum += float64(fb)
		n++
	}
	if naiveSum/float64(n) >= fairSum/float64(n) {
		t.Fatalf("naive metric mean scale %.0f should sit below the equalised metric's %.0f",
			naiveSum/float64(n), fairSum/float64(n))
	}
}

func TestNaiveLossPositive(t *testing.T) {
	gts := []detect.GroundTruth{{Box: detect.Box{X1: 0, Y1: 0, X2: 50, Y2: 50}, Class: 0}}
	r := buildResult(600, det(gts[0].Box, 0, 0.8, 3))
	if NaiveLoss(r, gts, DefaultLambda) <= 0 {
		t.Fatal("naive loss of a non-empty result must be positive")
	}
	if NaiveLoss(buildResult(600), gts, DefaultLambda) != 0 {
		t.Fatal("empty result has zero naive loss (the bias in miniature)")
	}
}
