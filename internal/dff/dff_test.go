package dff

import (
	"sync"
	"testing"

	"adascale/internal/adascale"
	"adascale/internal/eval"
	"adascale/internal/synth"
)

var (
	once sync.Once
	ds   *synth.Dataset
	sys  *adascale.System
)

func testSystem(t *testing.T) (*synth.Dataset, *adascale.System) {
	t.Helper()
	once.Do(func() {
		cfg := synth.VIDLike(21)
		var err error
		ds, err = synth.Generate(cfg, 24, 12)
		if err != nil {
			t.Fatal(err)
		}
		sys = adascale.Build(ds, adascale.DefaultBuildConfig())
	})
	return ds, sys
}

func toEval(outputs []adascale.FrameOutput) []eval.FrameDetections {
	out := make([]eval.FrameDetections, len(outputs))
	for i, o := range outputs {
		out[i] = eval.FrameDetections{Detections: o.Detections, GroundTruth: o.Frame.GroundTruth()}
	}
	return out
}

func TestKeyFrameSchedule(t *testing.T) {
	d, s := testSystem(t)
	cfg := DefaultConfig()
	cfg.KeyInterval = 4
	outs := Run(s.Detector, &d.Val[0], 600, cfg)
	if len(outs) != len(d.Val[0].Frames) {
		t.Fatal("output count mismatch")
	}
	for i, o := range outs {
		if i%4 == 0 {
			if o.DetectorMS < 70 {
				t.Fatalf("frame %d should be a key frame (cost %v)", i, o.DetectorMS)
			}
		} else if o.DetectorMS != s.Detector.Cost().FlowMS {
			t.Fatalf("frame %d should cost only flow (%v), got %v", i, s.Detector.Cost().FlowMS, o.DetectorMS)
		}
	}
}

func TestDFFFasterThanPerFrameDetection(t *testing.T) {
	d, s := testSystem(t)
	base := adascale.RunDataset(d.Val[:4], adascale.FixedRunner(s.Detector, 600))
	dffOut := adascale.RunDataset(d.Val[:4], Runner(s.Detector, 600, DefaultConfig()))
	if adascale.MeanRuntimeMS(dffOut) >= adascale.MeanRuntimeMS(base)/2 {
		t.Fatalf("DFF runtime %v not substantially below per-frame %v",
			adascale.MeanRuntimeMS(dffOut), adascale.MeanRuntimeMS(base))
	}
}

func TestPropagationTracksMotionBetterThanFreezing(t *testing.T) {
	// Flow-based propagation must beat naive box freezing on moving
	// objects: measure mean IoU of propagated boxes against ground truth.
	d, s := testSystem(t)
	cfg := DefaultConfig()
	cfg.KeyInterval = 12 // one key frame, eleven propagated
	nC := len(d.Config.Classes)

	// Frozen boxes: the key frame's detections, exactly as Run detects them,
	// repeated on every frame with no flow estimated.
	frozen := func() adascale.SnippetRunner {
		det := s.Detector.Clone()
		return func(sn *synth.Snippet) []adascale.FrameOutput {
			r := det.Detect(&sn.Frames[0], 600)
			key := r.PlainDetections()
			r.Release()
			outs := make([]adascale.FrameOutput, len(sn.Frames))
			for i := range sn.Frames {
				outs[i] = adascale.FrameOutput{Frame: &sn.Frames[i], Scale: 600, Detections: key}
			}
			return outs
		}
	}
	flowed := adascale.RunDataset(d.Val, Runner(s.Detector, 600, cfg))
	frozenOut := adascale.RunDataset(d.Val, frozen)
	mFlow := eval.Evaluate(toEval(flowed), nC).MAP
	mFrozen := eval.Evaluate(toEval(frozenOut), nC).MAP
	if mFlow <= mFrozen {
		t.Fatalf("flow propagation (%.3f) must beat frozen boxes (%.3f)", mFlow, mFrozen)
	}
}

func TestAccuracyDegradesWithKeyInterval(t *testing.T) {
	d, s := testSystem(t)
	nC := len(d.Config.Classes)
	mAPAt := func(interval int) float64 {
		cfg := DefaultConfig()
		cfg.KeyInterval = interval
		outs := adascale.RunDataset(d.Val, Runner(s.Detector, 600, cfg))
		return eval.Evaluate(toEval(outs), nC).MAP
	}
	if m1, m12 := mAPAt(1), mAPAt(12); m12 >= m1 {
		t.Fatalf("mAP must degrade as the key interval grows: k=1 %.3f vs k=12 %.3f", m1, m12)
	}
}

func TestAdaptiveCheaperThanFixedDFF(t *testing.T) {
	d, s := testSystem(t)
	fixed := adascale.RunDataset(d.Val, Runner(s.Detector, 600, DefaultConfig()))
	adaptive := adascale.RunDataset(d.Val, AdaptiveRunner(s.Detector, s.Regressor, DefaultConfig()))
	if adascale.MeanRuntimeMS(adaptive) >= adascale.MeanRuntimeMS(fixed) {
		t.Fatalf("DFF+AdaScale (%v ms) must be cheaper than DFF (%v ms) — the paper's +25%%",
			adascale.MeanRuntimeMS(adaptive), adascale.MeanRuntimeMS(fixed))
	}
	// Key frames after the first should not all sit at 600.
	adapted := false
	for _, o := range adaptive {
		if o.Scale != 600 {
			adapted = true
		}
	}
	if !adapted {
		t.Fatal("adaptive DFF never changed scale")
	}
}

func TestKeyIntervalClamp(t *testing.T) {
	d, s := testSystem(t)
	cfg := DefaultConfig()
	cfg.KeyInterval = 0 // clamps to 1: every frame a key frame
	outs := Run(s.Detector, &d.Val[1], 600, cfg)
	for i, o := range outs {
		if o.DetectorMS < 70 {
			t.Fatalf("frame %d not a key frame under interval clamp", i)
		}
	}
}
