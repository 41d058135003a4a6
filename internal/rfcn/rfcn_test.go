package rfcn

import (
	"math"
	"strings"
	"testing"

	"adascale/internal/detect"
	"adascale/internal/nn"
	"adascale/internal/raster"
	"adascale/internal/simclock"
	"adascale/internal/synth"
	"adascale/internal/tensor"
)

func testDataset(t *testing.T, seed int64, train, val int) *synth.Dataset {
	t.Helper()
	cfg := synth.VIDLike(seed)
	cfg.FramesPerSnippet = 4
	ds, err := synth.Generate(cfg, train, val)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// frameWithObject builds a single-frame scene with one object of the given
// native shortest side.
func frameWithObject(size float64, class int, clutter float64) *synth.Frame {
	cfg := synth.VIDLike(1)
	cfg.FramesPerSnippet = 1
	cfg.MaxObjects = 1
	ds, _ := synth.Generate(cfg, 1, 0)
	fr := &ds.Train[0].Frames[0]
	fr.Clutter = clutter
	fr.Blur = 0
	cx, cy := 640.0, 360.0
	fr.Objects = []synth.Object{{
		ID: 0, Class: class, Texture: raster.TextureSolid, Intensity: 0.8,
		Box: detect.Box{X1: cx - size/2, Y1: cy - size/2, X2: cx + size/2, Y2: cy + size/2},
	}}
	return fr
}

func countFPs(r *Result) int {
	n := 0
	for _, d := range r.Detections {
		if d.GTIndex < 0 {
			n++
		}
	}
	return n
}

func countTPs(r *Result) int {
	n := 0
	for _, d := range r.Detections {
		if d.GTIndex >= 0 {
			n++
		}
	}
	return n
}

func TestDetectDeterministic(t *testing.T) {
	ds := testDataset(t, 1, 2, 0)
	det := NewSS(&ds.Config)
	fr := &ds.Train[0].Frames[0]
	a := det.Detect(fr, 600)
	b := det.Detect(fr, 600)
	if len(a.Detections) != len(b.Detections) {
		t.Fatal("detection count not deterministic")
	}
	for i := range a.Detections {
		if a.Detections[i].Box != b.Detections[i].Box || a.Detections[i].Score != b.Detections[i].Score {
			t.Fatal("detections not deterministic")
		}
	}
}

func TestDetectionsNearGroundTruth(t *testing.T) {
	ds := testDataset(t, 2, 5, 0)
	det := NewSS(&ds.Config)
	matched, total := 0, 0
	for _, fr := range synth.Frames(ds.Train) {
		r := det.Detect(fr, 600)
		for _, d := range r.Detections {
			if d.GTIndex >= 0 && d.Score > 0.5 {
				total++
				if detect.IoU(d.Box, fr.Objects[d.GTIndex].Box) >= 0.5 {
					matched++
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no true-positive detections at scale 600")
	}
	if frac := float64(matched) / float64(total); frac < 0.8 {
		t.Fatalf("only %.0f%% of TP detections localise with IoU ≥ 0.5", frac*100)
	}
}

func TestFalsePositivesGrowWithScale(t *testing.T) {
	ds := testDataset(t, 3, 8, 0)
	det := NewSS(&ds.Config)
	fps := map[int]int{}
	for _, fr := range synth.Frames(ds.Train) {
		for _, scale := range []int{240, 600} {
			fps[scale] += countFPs(det.Detect(fr, scale))
		}
	}
	if fps[600] <= fps[240] {
		t.Fatalf("false positives must grow with scale: fp(600)=%d fp(240)=%d", fps[600], fps[240])
	}
}

func TestMultiScaleTrainingReducesFalsePositives(t *testing.T) {
	ds := testDataset(t, 4, 8, 0)
	ss, ms := NewSS(&ds.Config), New(&ds.Config, []int{600, 480, 360, 240})
	ssFP, msFP := 0, 0
	for _, fr := range synth.Frames(ds.Train) {
		ssFP += countFPs(ss.Detect(fr, 600))
		msFP += countFPs(ms.Detect(fr, 600))
	}
	if msFP >= ssFP {
		t.Fatalf("MS training must reduce FPs: ss=%d ms=%d", ssFP, msFP)
	}
	if ssFP == 0 {
		t.Fatal("SS detector produced no FPs at 600 — clutter model broken")
	}
}

func TestOverLargeObjectDetectedBetterWhenDownscaled(t *testing.T) {
	// A 560-px object at 600 has apparent size ≈ 467 px — far above the
	// band. At 240 it is ≈ 187 px — inside. Paper source (ii).
	fr := frameWithObject(560, 15 /* lion */, 0)
	det := New(&synth.Config{}, []int{600, 480, 360, 240})
	det.Data = func() *synth.Config { c := synth.VIDLike(1); return &c }()
	hi, lo := 0, 0
	// The detection draw is a single coin flip per frame seed; average over
	// reseeded copies of the same geometry.
	cfg := synth.VIDLike(1)
	cfg.FramesPerSnippet = 40
	cfg.MaxObjects = 1
	ds, _ := synth.Generate(cfg, 1, 0)
	for i := range ds.Train[0].Frames {
		f := &ds.Train[0].Frames[i]
		f.Clutter, f.Blur = 0, 0
		f.Objects = fr.Objects
		if countTPs(det.Detect(f, 600)) > 0 {
			hi++
		}
		if countTPs(det.Detect(f, 240)) > 0 {
			lo++
		}
	}
	if lo <= hi {
		t.Fatalf("over-large object should detect more often at 240 (%d) than 600 (%d)", lo, hi)
	}
}

func TestSmallObjectNeedsHighScale(t *testing.T) {
	cfg := synth.VIDLike(5)
	cfg.FramesPerSnippet = 40
	cfg.MaxObjects = 1
	ds, _ := synth.Generate(cfg, 1, 0)
	small := frameWithObject(70, 0, 0)
	det := New(&ds.Config, []int{600, 480, 360, 240})
	hi, lo := 0, 0
	for i := range ds.Train[0].Frames {
		f := &ds.Train[0].Frames[i]
		f.Clutter, f.Blur = 0, 0
		f.Objects = small.Objects
		if countTPs(det.Detect(f, 600)) > 0 {
			hi++
		}
		if countTPs(det.Detect(f, 128)) > 0 {
			lo++
		}
	}
	if hi <= lo {
		t.Fatalf("small object should need high scale: detected %d@600 vs %d@128", hi, lo)
	}
}

func TestRuntimeDecreasesWithScale(t *testing.T) {
	ds := testDataset(t, 6, 1, 0)
	det := NewSS(&ds.Config)
	fr := &ds.Train[0].Frames[0]
	var prev float64 = math.Inf(1)
	for _, scale := range []int{600, 480, 360, 240, 128} {
		r := det.Detect(fr, scale)
		if r.RuntimeMS >= prev {
			t.Fatalf("runtime must decrease with scale: %v at %d", r.RuntimeMS, scale)
		}
		prev = r.RuntimeMS
	}
	if r := det.Detect(fr, 600); math.Abs(r.RuntimeMS-75) > 1 {
		t.Fatalf("runtime at 600 = %v, want ≈ 75 (paper calibration)", r.RuntimeMS)
	}
}

// TestCostModelCarried: Detect's RuntimeMS is the detector's own cost
// model at the tested scale, and a Clone carries that model — a detector
// costed on other hardware stays costed on it in every pool worker.
func TestCostModelCarried(t *testing.T) {
	ds := testDataset(t, 6, 1, 0)
	det := NewSS(&ds.Config)
	fr := &ds.Train[0].Frames[0]
	m := *simclock.Paper1080Ti()
	m.BaseMS, m.At600MS = 3, 150
	det.cost = &m
	clone := det.Clone()
	if clone.Cost() != det.Cost() {
		t.Fatal("Clone dropped the cost model")
	}
	for _, d := range []*Detector{det, clone} {
		for _, scale := range []int{600, 240} {
			r := d.Detect(fr, scale)
			if want := m.DetectMS(fr.W, fr.H, scale); r.RuntimeMS != want {
				t.Fatalf("RuntimeMS at %d = %v, want the model's %v", scale, r.RuntimeMS, want)
			}
			r.Release()
		}
	}
	if r := det.Detect(fr, 600); r.RuntimeMS != 150 {
		t.Fatalf("RuntimeMS at 600 = %v, want the model's At600MS 150", r.RuntimeMS)
	}
}

func TestClassProbsWellFormed(t *testing.T) {
	ds := testDataset(t, 7, 3, 0)
	det := New(&ds.Config, []int{600, 480, 360, 240})
	for _, fr := range synth.Frames(ds.Train) {
		r := det.Detect(fr, 480)
		for _, d := range r.Detections {
			if d.ClassProbs == nil {
				t.Fatal("detection missing class probabilities")
			}
			if len(d.ClassProbs) != len(ds.Config.Classes)+1 {
				t.Fatalf("probs length %d", len(d.ClassProbs))
			}
			var sum float64
			for _, p := range d.ClassProbs {
				if p < 0 {
					t.Fatal("negative probability")
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("probs sum to %v", sum)
			}
			if d.Score > 0.5 && d.ClassProbs[1+d.Class] < d.ClassProbs[0] {
				t.Fatal("a confident box's class should dominate background")
			}
		}
	}
}

func TestNMSAppliedNoHeavyOverlaps(t *testing.T) {
	ds := testDataset(t, 8, 4, 0)
	det := NewSS(&ds.Config)
	for _, fr := range synth.Frames(ds.Train) {
		r := det.Detect(fr, 600)
		for i := range r.Detections {
			for j := i + 1; j < len(r.Detections); j++ {
				a, b := r.Detections[i], r.Detections[j]
				if a.Class == b.Class && detect.IoU(a.Box, b.Box) > NMSThreshold {
					t.Fatalf("NMS left overlapping same-class boxes (IoU %v)", detect.IoU(a.Box, b.Box))
				}
			}
		}
	}
}

func TestFeaturesShapeAndScaleDependence(t *testing.T) {
	ds := testDataset(t, 9, 1, 0)
	det := NewSS(&ds.Config)
	fr := &ds.Train[0].Frames[0]
	f600 := det.Features(fr, 600)
	f240 := det.Features(fr, 240)
	if f600.Dim(0) != FeatureChannels {
		t.Fatalf("feature channels = %d", f600.Dim(0))
	}
	if f600.Dim(1) <= f240.Dim(1) || f600.Dim(2) <= f240.Dim(2) {
		t.Fatalf("features at 600 (%v) must be larger than at 240 (%v)", f600.Shape(), f240.Shape())
	}
	// ≈ render size / backbone stride.
	wantH := (600 / ds.Config.RenderDiv) / backboneStride
	if math.Abs(float64(f600.Dim(1)-wantH)) > 2 {
		t.Fatalf("feature height %d, want ≈ %d", f600.Dim(1), wantH)
	}
	if f600.MaxAbs() == 0 {
		t.Fatal("features are all zero")
	}
}

// TestRenderSizeMatchesRender pins RenderSize's arithmetic to the image
// the backbone is actually handed, across the scale ladder, below the
// render floor and past the long-side cap.
func TestRenderSizeMatchesRender(t *testing.T) {
	ds := testDataset(t, 9, 1, 0)
	det := NewSS(&ds.Config)
	fr := &ds.Train[0].Frames[0]
	div := ds.Config.RenderDiv
	for _, scale := range []int{1, 16*div - 1, 128, 240, 361, 480, 600, 4000} {
		im := fr.Render(max(scale/div, 16), MaxLongSide*div, div)
		if h, w := det.RenderSize(fr, scale); h != im.H || w != im.W {
			t.Fatalf("scale %d: RenderSize %dx%d, rendered %dx%d", scale, h, w, im.H, im.W)
		}
	}
}

func TestDetectWithFeaturesAttaches(t *testing.T) {
	ds := testDataset(t, 10, 1, 0)
	det := NewSS(&ds.Config)
	fr := &ds.Train[0].Frames[0]
	r := det.DetectWithFeatures(fr, 360)
	if r.Features == nil {
		t.Fatal("DetectWithFeatures must attach features")
	}
	if det.Detect(fr, 360).Features != nil {
		t.Fatal("plain Detect must not rasterise")
	}
}

func TestBackboneDeterministic(t *testing.T) {
	ds := testDataset(t, 11, 1, 0)
	fr := &ds.Train[0].Frames[0]
	im := fr.Render(60, 8000, 4)
	a := NewBackbone().Extract(im)
	b := NewBackbone().Extract(im)
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatal("backbone not deterministic across instances")
		}
	}
}

// TestExtractMatchesSignBranchAbs pins that the sign-bit abs changed no
// feature bit: Extract on a real render equals the same three layers
// rectified by the definitional `if v < 0 { v = -v }`, which differs from
// it only on -0 and NaN.
func TestExtractMatchesSignBranchAbs(t *testing.T) {
	ds := testDataset(t, 11, 1, 0)
	im := ds.Train[0].Frames[0].Render(150, 8000, 4)
	b := NewBackbone()
	x := tensor.FromSlice(im.Pix, 1, im.H, im.W)
	for _, conv := range []*nn.Conv2D{b.conv1, b.conv2, b.conv3} {
		x = conv.Infer(x, b.pool)
		for i, v := range x.Data() {
			if v < 0 {
				x.Data()[i] = -v
			}
		}
	}
	x.ScaleInPlace(featureGain)
	got := b.Extract(im)
	for i, w := range x.Data() {
		if g := got.Data()[i]; math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("feature %d = %v (bits %08x), sign-branch abs gives %v (bits %08x)",
				i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

func TestTrainScalesSortedAndMS(t *testing.T) {
	d := New(&synth.Config{}, []int{240, 600, 360})
	if d.TrainScales[0] != 600 || d.TrainScales[2] != 240 {
		t.Fatalf("train scales not sorted descending: %v", d.TrainScales)
	}
	if !d.MultiScale() {
		t.Fatal("3-scale detector must report MultiScale")
	}
	if NewSS(&synth.Config{}).MultiScale() {
		t.Fatal("SS detector must not report MultiScale")
	}
}

func TestPlainDetections(t *testing.T) {
	ds := testDataset(t, 12, 1, 0)
	det := NewSS(&ds.Config)
	r := det.Detect(&ds.Train[0].Frames[0], 600)
	plain := r.PlainDetections()
	if len(plain) != len(r.Detections) {
		t.Fatal("PlainDetections length mismatch")
	}
	for i := range plain {
		if plain[i] != r.Detections[i].Detection {
			t.Fatal("PlainDetections content mismatch")
		}
	}
}

// TestReleaseTwicePanics: releasing a result twice before Detect hands it
// out again would put one struct in the pool twice — two later Detect calls
// sharing it — so the second Release panics, naming the bug; once Detect
// has handed the struct out again, releasing it is legal again.
func TestReleaseTwicePanics(t *testing.T) {
	ds := testDataset(t, 12, 1, 0)
	det := NewSS(&ds.Config)
	r := det.Detect(&ds.Train[0].Frames[0], 600)
	r.Release()
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "released twice") {
				t.Fatalf("second Release recovered %q, want a panic naming the double release", msg)
			}
		}()
		r.Release()
	}()
	det.Detect(&ds.Train[0].Frames[0], 600).Release()
}

func TestResponseCurveShape(t *testing.T) {
	ss := []int{600}
	ms := []int{600, 480, 360, 240}
	// Peak of the band beats both tails.
	if sizeResponse(150, ss) < 0.95 {
		t.Fatalf("mid-band response %v too low", sizeResponse(150, ss))
	}
	if sizeResponse(15, ss) > 0.1 || sizeResponse(600, ss) > 0.1 {
		t.Fatal("tails must be suppressed")
	}
	// MS extends the lower edge.
	if sizeResponse(35, ms) <= sizeResponse(35, ss) {
		t.Fatal("MS training must improve small-size response")
	}
	// FP factor decreases with training diversity.
	if !(fpTrainingFactor(ms) < fpTrainingFactor([]int{600, 360}) &&
		fpTrainingFactor([]int{600, 360}) < fpTrainingFactor(ss)) {
		t.Fatal("fpTrainingFactor not monotone in scale-set size")
	}
}
