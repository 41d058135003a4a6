package scaleopt

import (
	"math"
	"testing"

	"adascale/internal/detect"
	"adascale/internal/raster"
	"adascale/internal/rfcn"
	"adascale/internal/synth"
)

func det(box detect.Box, class int, score float64, nClasses int) rfcn.RawDetection {
	probs := make([]float64, nClasses+1)
	rest := (1 - score) / float64(nClasses)
	for i := range probs {
		probs[i] = rest
	}
	probs[1+class] = score
	probs[0] += rest*float64(nClasses) - rest*float64(nClasses) // keep simple; normalise below
	var sum float64
	for _, p := range probs {
		sum += p
	}
	for i := range probs {
		probs[i] /= sum
	}
	return rfcn.RawDetection{
		Detection:  detect.Detection{Box: box, Class: class, Score: score},
		ClassProbs: probs,
	}
}

func TestFastRCNNOffsetsZeroForPerfect(t *testing.T) {
	b := detect.Box{X1: 10, Y1: 20, X2: 50, Y2: 90}
	for _, v := range FastRCNNOffsets(b, b) {
		if v != 0 {
			t.Fatalf("perfect prediction must have zero offsets, got %v", v)
		}
	}
}

func TestFastRCNNOffsetsDirections(t *testing.T) {
	pred := detect.Box{X1: 0, Y1: 0, X2: 10, Y2: 10}
	gt := detect.Box{X1: 5, Y1: 0, X2: 15, Y2: 10} // shifted right
	off := FastRCNNOffsets(pred, gt)
	if off[0] <= 0 {
		t.Fatalf("tx should be positive for a rightward shift, got %v", off[0])
	}
	if off[2] != 0 || off[3] != 0 {
		t.Fatal("same-size boxes must have zero log-size offsets")
	}
	big := detect.Box{X1: 0, Y1: 0, X2: 20, Y2: 20}
	off = FastRCNNOffsets(pred, big)
	if math.Abs(off[2]-math.Log(2)) > 1e-12 {
		t.Fatalf("tw = %v, want ln 2", off[2])
	}
}

func TestBoxLossBackgroundHasNoRegression(t *testing.T) {
	gts := []detect.GroundTruth{{Box: detect.Box{X1: 0, Y1: 0, X2: 10, Y2: 10}, Class: 2}}
	d := det(detect.Box{X1: 500, Y1: 500, X2: 520, Y2: 520}, 1, 0.9, 5)
	bg := BoxLoss(d, gts, -1, DefaultLambda)
	// Background loss is -log p(background); a confident wrong box has
	// low background probability, hence high loss.
	if bg <= 0 {
		t.Fatalf("background loss %v must be positive", bg)
	}
	dPerfect := det(gts[0].Box, 2, 0.9, 5)
	fg := BoxLoss(dPerfect, gts, 0, DefaultLambda)
	// Perfect localisation: regression term 0, so loss is pure cls.
	if math.Abs(fg-(-math.Log(dPerfect.ClassProbs[3]))) > 1e-9 {
		t.Fatalf("perfect fg box loss %v should equal its cls loss", fg)
	}
}

func TestBoxLossPenalisesBadLocalisation(t *testing.T) {
	gts := []detect.GroundTruth{{Box: detect.Box{X1: 0, Y1: 0, X2: 100, Y2: 100}, Class: 0}}
	good := det(detect.Box{X1: 1, Y1: 1, X2: 99, Y2: 99}, 0, 0.9, 3)
	bad := det(detect.Box{X1: 20, Y1: 20, X2: 100, Y2: 100}, 0, 0.9, 3)
	lg := BoxLoss(good, gts, 0, DefaultLambda)
	lb := BoxLoss(bad, gts, 0, DefaultLambda)
	if lb <= lg {
		t.Fatalf("worse localisation must cost more: %v vs %v", lb, lg)
	}
	// λ = 0 removes the regression term entirely.
	if BoxLoss(bad, gts, 0, 0) != BoxLoss(good, gts, 0, 0) {
		t.Fatal("with λ=0, equally-confident boxes must tie")
	}
}

func TestBoxLossPenalisesWrongClass(t *testing.T) {
	gts := []detect.GroundTruth{{Box: detect.Box{X1: 0, Y1: 0, X2: 100, Y2: 100}, Class: 0}}
	right := det(gts[0].Box, 0, 0.8, 3)
	wrong := det(gts[0].Box, 1, 0.8, 3)
	if BoxLoss(wrong, gts, 0, 1) <= BoxLoss(right, gts, 0, 1) {
		t.Fatal("wrong class must cost more")
	}
}

// buildResult fabricates a detector result at a given scale.
func buildResult(scale int, dets ...rfcn.RawDetection) *rfcn.Result {
	return &rfcn.Result{Scale: scale, Detections: dets}
}

func TestCompareEqualisesForegroundCount(t *testing.T) {
	gts := []detect.GroundTruth{
		{Box: detect.Box{X1: 0, Y1: 0, X2: 100, Y2: 100}, Class: 0},
		{Box: detect.Box{X1: 300, Y1: 300, X2: 400, Y2: 400}, Class: 1},
	}
	// Scale 600 finds both objects but with sloppy boxes; scale 240 finds
	// only one, nearly perfectly. Without equalisation 600's total loss
	// (2 boxes) would beat nothing; with n_min = 1, each scale is judged by
	// its single best box and 240 must win.
	r600 := buildResult(600,
		det(detect.Box{X1: 10, Y1: 10, X2: 100, Y2: 100}, 0, 0.6, 3),
		det(detect.Box{X1: 310, Y1: 310, X2: 400, Y2: 400}, 1, 0.6, 3),
	)
	r240 := buildResult(240,
		det(detect.Box{X1: 0, Y1: 0, X2: 100, Y2: 100}, 0, 0.95, 3),
	)
	evals, best := Compare([]*rfcn.Result{r600, r240}, gts, DefaultLambda)
	fg600, fg240 := ForegroundLosses(r600, gts, DefaultLambda), ForegroundLosses(r240, gts, DefaultLambda)
	if len(fg600) != 2 || len(fg240) != 1 {
		t.Fatalf("foreground counts n_m %d/%d, want 2/1", len(fg600), len(fg240))
	}
	if best != 240 {
		t.Fatalf("optimal scale %d, want 240 (evals %+v)", best, evals)
	}
	// Each loss must be over exactly n_min = 1 box, so both are single-box
	// losses — the 600 loss must be that of its better box only.
	if evals[0].Loss != fg600[0] || evals[1].Loss != fg240[0] {
		t.Fatalf("losses %v/%v, want each scale's best box alone %v/%v", evals[0].Loss, evals[1].Loss, fg600[0], fg240[0])
	}
}

func TestCompareZeroForegroundScaleExcluded(t *testing.T) {
	gts := []detect.GroundTruth{{Box: detect.Box{X1: 0, Y1: 0, X2: 100, Y2: 100}, Class: 0}}
	rGood := buildResult(600, det(detect.Box{X1: 0, Y1: 0, X2: 100, Y2: 100}, 0, 0.9, 3))
	rEmpty := buildResult(128)
	evals, best := Compare([]*rfcn.Result{rGood, rEmpty}, gts, DefaultLambda)
	if best != 600 {
		t.Fatalf("optimal = %d, want 600", best)
	}
	if !math.IsInf(evals[1].Loss, 1) {
		t.Fatal("empty scale must have +Inf loss")
	}
}

func TestCompareAllEmptyFallsBackToLargest(t *testing.T) {
	gts := []detect.GroundTruth{{Box: detect.Box{X1: 0, Y1: 0, X2: 100, Y2: 100}, Class: 0}}
	_, best := Compare([]*rfcn.Result{buildResult(360), buildResult(600), buildResult(128)}, gts, DefaultLambda)
	if best != 600 {
		t.Fatalf("fallback = %d, want the largest scale", best)
	}
}

func TestForegroundLossesSorted(t *testing.T) {
	gts := []detect.GroundTruth{
		{Box: detect.Box{X1: 0, Y1: 0, X2: 100, Y2: 100}, Class: 0},
		{Box: detect.Box{X1: 300, Y1: 300, X2: 400, Y2: 400}, Class: 1},
	}
	r := buildResult(600,
		det(detect.Box{X1: 20, Y1: 20, X2: 100, Y2: 100}, 0, 0.5, 3), // sloppy but IoU 0.64
		det(detect.Box{X1: 300, Y1: 300, X2: 400, Y2: 400}, 1, 0.95, 3),
		det(detect.Box{X1: 900, Y1: 900, X2: 950, Y2: 950}, 0, 0.9, 3), // background: excluded
	)
	losses := ForegroundLosses(r, gts, DefaultLambda)
	if len(losses) != 2 {
		t.Fatalf("foreground losses = %d, want 2", len(losses))
	}
	if losses[0] > losses[1] {
		t.Fatal("losses must be sorted ascending")
	}
}

// End-to-end: for a frame holding one over-large, high-texture object the
// metric should prefer a downscaled image, and for a small object it should
// keep a large scale — the paper's two improvement sources.
func TestOptimalScaleEndToEnd(t *testing.T) {
	cfg := synth.VIDLike(77)
	cfg.FramesPerSnippet = 30
	cfg.MaxObjects = 1
	ds, _ := synth.Generate(cfg, 1, 0)
	detector := rfcn.New(&ds.Config, []int{600, 480, 360, 240})
	scales := []int{600, 480, 360, 240, 128}

	place := func(f *synth.Frame, size float64) {
		f.Clutter = 0.5
		f.Blur = 0
		f.Objects = []synth.Object{{
			ID: 0, Class: 15, Texture: raster.TextureChecker, Intensity: 0.8,
			Box: detect.Box{X1: 640 - size/2, Y1: 360 - size/2, X2: 640 + size/2, Y2: 360 + size/2},
		}}
	}

	sumLarge, sumSmall, n := 0.0, 0.0, 0
	for i := range ds.Train[0].Frames {
		f := &ds.Train[0].Frames[i]
		place(f, 600) // apparent 500 at scale 600 — over-large
		bigOpt, _ := OptimalScale(detector, f, scales, DefaultLambda)
		place(f, 100) // apparent 83 at scale 600 — needs resolution
		smallOpt, _ := OptimalScale(detector, f, scales, DefaultLambda)
		sumLarge += float64(bigOpt)
		sumSmall += float64(smallOpt)
		n++
	}
	if sumLarge/float64(n) >= sumSmall/float64(n) {
		t.Fatalf("mean optimal scale for over-large objects (%v) should be below small objects (%v)",
			sumLarge/float64(n), sumSmall/float64(n))
	}
}
