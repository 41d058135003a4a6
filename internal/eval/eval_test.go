package eval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"adascale/internal/detect"
)

func box(x, y, s float64) detect.Box {
	return detect.Box{X1: x, Y1: y, X2: x + s, Y2: y + s}
}

func TestPerfectDetectionsGiveAPOne(t *testing.T) {
	frames := []FrameDetections{{
		GroundTruth: []detect.GroundTruth{{Box: box(0, 0, 10), Class: 0}, {Box: box(50, 50, 10), Class: 0}},
		Detections: []detect.Detection{
			{Box: box(0, 0, 10), Class: 0, Score: 0.9},
			{Box: box(50, 50, 10), Class: 0, Score: 0.8},
		},
	}}
	r := Evaluate(frames, 1)
	if r.MAP != 1 {
		t.Fatalf("mAP = %v, want 1", r.MAP)
	}
	if r.PerClass[0].TP != 2 || r.PerClass[0].FP != 0 {
		t.Fatalf("TP/FP = %d/%d", r.PerClass[0].TP, r.PerClass[0].FP)
	}
}

func TestAPKnownValue(t *testing.T) {
	// 2 ground truths; detections ranked: TP(0.9), FP(0.8), TP(0.7).
	// PR points: (0.5, 1), (0.5, 0.5), (1.0, 2/3).
	// Envelope: max precision at recall ≥ r → [1, 2/3, 2/3].
	// AP = 0.5·1 + 0.5·(2/3) = 5/6.
	frames := []FrameDetections{{
		GroundTruth: []detect.GroundTruth{{Box: box(0, 0, 10), Class: 0}, {Box: box(50, 50, 10), Class: 0}},
		Detections: []detect.Detection{
			{Box: box(0, 0, 10), Class: 0, Score: 0.9},
			{Box: box(200, 200, 10), Class: 0, Score: 0.8},
			{Box: box(50, 50, 10), Class: 0, Score: 0.7},
		},
	}}
	r := Evaluate(frames, 1)
	if math.Abs(r.MAP-5.0/6.0) > 1e-12 {
		t.Fatalf("AP = %v, want 5/6", r.MAP)
	}
}

func TestDuplicateDetectionIsFP(t *testing.T) {
	// Two detections on one ground truth: the lower-scoring one is FP.
	frames := []FrameDetections{{
		GroundTruth: []detect.GroundTruth{{Box: box(0, 0, 10), Class: 0}},
		Detections: []detect.Detection{
			{Box: box(0, 0, 10), Class: 0, Score: 0.9},
			{Box: box(1, 1, 10), Class: 0, Score: 0.8},
		},
	}}
	r := Evaluate(frames, 1)
	if r.PerClass[0].TP != 1 || r.PerClass[0].FP != 1 {
		t.Fatalf("TP/FP = %d/%d, want 1/1", r.PerClass[0].TP, r.PerClass[0].FP)
	}
}

func TestWrongClassNeverMatches(t *testing.T) {
	frames := []FrameDetections{{
		GroundTruth: []detect.GroundTruth{{Box: box(0, 0, 10), Class: 0}},
		Detections:  []detect.Detection{{Box: box(0, 0, 10), Class: 1, Score: 0.9}},
	}}
	r := Evaluate(frames, 2)
	if r.PerClass[1].FP != 1 || r.PerClass[0].TP != 0 {
		t.Fatal("wrong-class detection must be a false positive")
	}
	// Class 1 has no ground truth → excluded from mAP; class 0 AP is 0.
	if r.MAP != 0 {
		t.Fatalf("mAP = %v, want 0", r.MAP)
	}
}

func TestLowIoUIsFP(t *testing.T) {
	frames := []FrameDetections{{
		GroundTruth: []detect.GroundTruth{{Box: box(0, 0, 10), Class: 0}},
		Detections:  []detect.Detection{{Box: box(6, 6, 10), Class: 0, Score: 0.9}},
	}}
	r := Evaluate(frames, 1)
	if r.PerClass[0].TP != 0 || r.PerClass[0].FP != 1 {
		t.Fatal("IoU < 0.5 must not match")
	}
}

func TestMatchingIsConfidenceGreedy(t *testing.T) {
	// The higher-confidence detection claims the ground truth even when
	// listed second.
	gt := box(0, 0, 10)
	frames := []FrameDetections{{
		GroundTruth: []detect.GroundTruth{{Box: gt, Class: 0}},
		Detections: []detect.Detection{
			{Box: box(1, 1, 10), Class: 0, Score: 0.5},
			{Box: gt, Class: 0, Score: 0.9},
		},
	}}
	r := Evaluate(frames, 1)
	// TP must be the 0.9 one: with greedy order the curve starts at
	// precision 1.
	if len(r.PerClass[0].Curve) == 0 || r.PerClass[0].Curve[0].Precision != 1 {
		t.Fatalf("curve %v: high-confidence detection should match first", r.PerClass[0].Curve)
	}
}

func TestMAPAveragesOnlyAnnotatedClasses(t *testing.T) {
	frames := []FrameDetections{{
		GroundTruth: []detect.GroundTruth{{Box: box(0, 0, 10), Class: 0}},
		Detections:  []detect.Detection{{Box: box(0, 0, 10), Class: 0, Score: 0.9}},
	}}
	r := Evaluate(frames, 5)
	if r.MAP != 1 {
		t.Fatalf("mAP = %v; classes without ground truth must not dilute it", r.MAP)
	}
}

func TestCurveMonotoneRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var frames []FrameDetections
	for i := 0; i < 10; i++ {
		fd := FrameDetections{}
		for j := 0; j < 3; j++ {
			b := box(rng.Float64()*100, rng.Float64()*100, 10+rng.Float64()*10)
			fd.GroundTruth = append(fd.GroundTruth, detect.GroundTruth{Box: b, Class: 0})
			if rng.Float64() < 0.8 {
				fd.Detections = append(fd.Detections, detect.Detection{Box: b, Class: 0, Score: rng.Float64()})
			}
			if rng.Float64() < 0.5 {
				fd.Detections = append(fd.Detections, detect.Detection{
					Box: box(rng.Float64()*500+200, 300, 15), Class: 0, Score: rng.Float64()})
			}
		}
		frames = append(frames, fd)
	}
	r := Evaluate(frames, 1)
	curve := r.PerClass[0].Curve
	for i := 1; i < len(curve); i++ {
		if curve[i].Recall < curve[i-1].Recall {
			t.Fatal("recall must be non-decreasing along the curve")
		}
	}
}

// Properties: AP is within [0,1]; removing a false positive never lowers AP.
func TestAPProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gt := []detect.GroundTruth{{Box: box(0, 0, 20), Class: 0}, {Box: box(100, 100, 20), Class: 0}}
		var dets []detect.Detection
		for j := 0; j < 1+rng.Intn(6); j++ {
			if rng.Float64() < 0.5 {
				dets = append(dets, detect.Detection{Box: gt[rng.Intn(2)].Box, Class: 0, Score: rng.Float64()})
			} else {
				dets = append(dets, detect.Detection{Box: box(500+rng.Float64()*100, 0, 20), Class: 0, Score: rng.Float64()})
			}
		}
		full := Evaluate([]FrameDetections{{GroundTruth: gt, Detections: dets}}, 1)
		if full.MAP < 0 || full.MAP > 1 {
			return false
		}
		// Drop one far-away (false positive) detection if present.
		for i, d := range dets {
			if d.Box.X1 >= 500 {
				reduced := append(append([]detect.Detection{}, dets[:i]...), dets[i+1:]...)
				r2 := Evaluate([]FrameDetections{{GroundTruth: gt, Detections: reduced}}, 1)
				if r2.MAP < full.MAP-1e-12 {
					return false
				}
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestTPFPCountsAndCurveAt(t *testing.T) {
	frames := []FrameDetections{{
		GroundTruth: []detect.GroundTruth{{Box: box(0, 0, 10), Class: 0}, {Box: box(40, 40, 10), Class: 1}},
		Detections: []detect.Detection{
			{Box: box(0, 0, 10), Class: 0, Score: 0.9},
			{Box: box(300, 300, 10), Class: 1, Score: 0.8},
		},
	}}
	r := Evaluate(frames, 2)
	tp, fp := r.TPFPCounts()
	if tp != 1 || fp != 1 {
		t.Fatalf("TPFPCounts = %d/%d", tp, fp)
	}
	if r.CurveAt(0) == nil || r.CurveAt(7) != nil || r.CurveAt(-1) != nil {
		t.Fatal("CurveAt bounds handling wrong")
	}
}

// TestEvaluateAllocsIndependentOfFrames: the per-frame sort and match
// buffers are reused and each class's list is allocated once at its final
// size, so evaluating four times the frames costs no more allocations, while
// a class more costs at most three: its list, its curve and the curve's
// envelope. Before, every frame cost a copy, a match buffer and a sort.
func TestEvaluateAllocsIndependentOfFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	frame := func(nClasses int) FrameDetections {
		var fd FrameDetections
		for j := 0; j < 6; j++ {
			b, c := box(rng.Float64()*200, rng.Float64()*200, 20), rng.Intn(nClasses)
			fd.GroundTruth = append(fd.GroundTruth, detect.GroundTruth{Box: b, Class: c})
			fd.Detections = append(fd.Detections,
				detect.Detection{Box: b, Class: c, Score: rng.Float64()},
				detect.Detection{Box: box(400, 400, 20), Class: c, Score: rng.Float64()})
		}
		return fd
	}
	allocs := func(nFrames, nClasses int) float64 {
		frames := make([]FrameDetections, nFrames)
		for i := range frames {
			frames[i] = frame(nClasses)
		}
		return testing.AllocsPerRun(10, func() { Evaluate(frames, nClasses) })
	}
	few, many := allocs(50, 4), allocs(200, 4)
	if many != few {
		t.Fatalf("Evaluate allocates %v times over 50 frames, %v over 200: it grows with the frame count", few, many)
	}
	if wider := allocs(200, 8); wider <= many || wider > many+4*3 {
		t.Fatalf("Evaluate allocates %v times at 4 classes, %v at 8: want at most three a class more", many, wider)
	}
}

func TestEmptyInputs(t *testing.T) {
	r := Evaluate(nil, 3)
	if r.MAP != 0 {
		t.Fatalf("empty evaluation mAP = %v", r.MAP)
	}
	r = Evaluate([]FrameDetections{{}}, 3)
	if r.MAP != 0 {
		t.Fatal("frame with no gt/detections must evaluate to 0")
	}
}
