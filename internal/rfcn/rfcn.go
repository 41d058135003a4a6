// Package rfcn is the behavioural stand-in for the paper's R-FCN object
// detector (ResNet-101 backbone, trained in MXNet on ImageNet DET+VID).
// Training and running a deep detector is the hardware/data gate flagged by
// this paper's reproduction band, so the detector's externally observable
// behaviour is modelled instead: given a synthetic frame's ground truth and
// a test scale, it emits detections whose quality follows a calibrated
// scale-response model (response.go), plus clutter- and detail-driven false
// positives whose rate grows with resolution. All stochastic choices are
// derived deterministically from the frame seed via common random numbers,
// so detections vary smoothly and reproducibly across test scales — exactly
// what the optimal-scale metric (Sec. 3.1) and the scale regressor
// (Sec. 3.2) need to observe.
//
// The deep features the regressor consumes are real: frames are rasterised
// and pushed through a frozen convolutional backbone (backbone.go).
package rfcn

import (
	"math"
	"sort"
	"sync"

	"adascale/internal/detect"
	"adascale/internal/raster"
	"adascale/internal/rng"
	"adascale/internal/simclock"
	"adascale/internal/synth"
	"adascale/internal/tensor"
)

// rngScratch recycles generators across Detect calls. Detect draws from one
// deterministically re-seeded generator per frame plus two per object;
// allocating them fresh was a top-five allocation site. Re-seeding a recycled
// generator reproduces exactly the sequence of rand.New(rand.NewSource(seed)),
// so common random numbers are preserved. A sync.Pool (not a Detector field)
// keeps Detect safe for concurrent use on a shared detector, as documented on
// Clone.
var rngScratch = sync.Pool{New: func() any { return rng.New(1) }}

// detScratch holds Detect's per-call candidate lists (pre-NMS detections,
// their class-prob references, and the NMS survivors). All three are
// re-sliced to length 0 before reuse and their contents copied out before
// the scratch is pooled, so recycling is invisible to callers. Pooled
// rather than Detector-owned for the same concurrency reason as rngScratch.
type detScratch struct {
	raw   []detect.Detection
	probs [][]float64
	kept  []detect.Detection
}

var detScratchPool = sync.Pool{New: func() any { return new(detScratch) }}

// seededRng returns a pooled generator on the stream of
// rand.New(rand.NewSource(seed)). The seed is free — rng.Seed computes no
// state word, a generator costs only the numbers drawn from it — so there is
// nothing to gain from sharing one across objects or trimming its draws, and
// doing either changes the stream every detection and golden hangs on.
func seededRng(seed int64) *rng.Rand {
	r := rngScratch.Get().(*rng.Rand)
	r.Seed(seed)
	return r
}

// probArena hands out []float64 probability vectors carved at increasing
// offsets from one backing buffer, collapsing the per-detection ClassProbs
// allocations into at most one growth per Detect call. Handed-out vectors
// are capacity-limited subslices and are never re-carved by the arena, so
// retaining them in Result is safe for as long as the Result lives. The
// buffer itself recycles through Result.Release: if a growth reallocates
// mid-call, already-issued vectors keep aliasing the old buffer (which then
// simply dies with the Result) and only the newest buffer is retained.
type probArena struct {
	buf []float64
	off int
}

func (a *probArena) take(n int) []float64 {
	if a.off+n > len(a.buf) {
		grow := 2 * len(a.buf)
		if grow < 64*n {
			grow = 64 * n
		}
		a.buf = make([]float64, grow)
		a.off = 0
	}
	s := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

// Paper constants.
const (
	// NMSThreshold is the paper's NMS IoU threshold (Sec. 4.2).
	NMSThreshold = 0.3
	// TopK is the paper's post-NMS detection cap (Sec. 4.2).
	TopK = 300
	// MaxLongSide is the Fast R-CNN resize protocol's longest-side bound.
	MaxLongSide = 2000
)

// Detector is a behavioural R-FCN. Construct with New; the zero value is
// not usable.
type Detector struct {
	// Data is the dataset configuration the detector was "trained" on
	// (class profiles drive per-class quality).
	Data *synth.Config

	// TrainScales is S_train: {600} for single-scale training, the paper's
	// default multi-scale set is {600, 480, 360, 240}.
	TrainScales []int

	backbone *Backbone

	// render is the storage features() renders each frame into: it drops
	// the image once the backbone has read it, so one buffer per detector
	// (empty in a Clone) serves every frame.
	render raster.Image
	cost   *simclock.Model // modelled ms of a pass (RuntimeMS) and of the pipeline (Cost)
}

// New creates a detector for the given dataset trained at the given
// scales, costed on the paper's hardware (simclock.Paper1080Ti).
func New(data *synth.Config, trainScales []int) *Detector {
	scales := append([]int(nil), trainScales...)
	sort.Sort(sort.Reverse(sort.IntSlice(scales)))
	return &Detector{Data: data, TrainScales: scales, backbone: NewBackbone(), cost: simclock.Paper1080Ti()}
}

// Cost returns the cost model of every modelled millisecond of a pipeline
// built on this detector: its passes, regressor, flow, Seq-NMS, skips.
func (d *Detector) Cost() *simclock.Model { return d.cost }

// NewSS creates the SS baseline: trained at scale 600 only.
func NewSS(data *synth.Config) *Detector { return New(data, []int{600}) }

// MultiScale reports whether the detector was multi-scale trained.
func (d *Detector) MultiScale() bool { return len(d.TrainScales) > 1 }

// Clone returns an independent detector producing identical outputs. The
// backbone (whose conv layers cache activations between calls) and the
// training-scale set are deep-copied; the dataset configuration and the
// cost model are shared, as neither changes after construction. Detect is
// read-only and safe to share, but DetectWithFeatures and Features drive
// the backbone — the parallel dataset runner therefore gives every worker
// its own clone.
func (d *Detector) Clone() *Detector {
	return &Detector{
		Data:        d.Data,
		TrainScales: append([]int(nil), d.TrainScales...),
		backbone:    d.backbone.Clone(),
		cost:        d.cost,
	}
}

// RawDetection is a pre-evaluation detection with the classifier's
// probability vector (index 0 = background, 1+c = class c) retained for the
// loss-based optimal-scale metric.
type RawDetection struct {
	detect.Detection
	ClassProbs []float64
}

// Result is the output of one detector invocation. Boxes are in native
// frame coordinates so results at different scales are directly comparable.
type Result struct {
	Frame *synth.Frame
	Scale int

	// Detections are the post-NMS outputs (≤ TopK, native coordinates).
	Detections []RawDetection

	// Features is the backbone's deep feature map at the tested scale;
	// nil unless DetectWithFeatures was used. It is backed by the
	// detector's buffer pool: hand it back via Detector.Recycle when done
	// (steady-state serving then allocates nothing here); retaining it —
	// as label generation does — is also safe, it just isn't recycled.
	Features *tensor.Tensor

	// RuntimeMS is the modelled detector runtime at this scale.
	RuntimeMS float64

	// proposals are RPN-stage objectness boxes (native coordinates). The
	// region proposal network fires on object-like blobs even when the
	// classification head fails, so these survive for over-large objects —
	// evidence the deep features genuinely contain and the scale regressor
	// needs (features painting in features()).
	proposals []detect.Box

	// probBuf is the arena backing the Detections' ClassProbs vectors; it
	// travels with the Result so Release can recycle it.
	probBuf []float64

	released bool // by Release, until Detect hands the struct out again
}

// resultPool recycles Result structs together with their detection,
// proposal and class-prob storage. Detect draws from it and Release feeds
// it; results that are never released are simply collected by the GC.
var resultPool = sync.Pool{New: func() any { return new(Result) }}

// Release returns the result's storage to the detector's pools. The result
// and every slice obtained from it — Detections, ClassProbs — must not be
// used afterwards (PlainDetections/AppendDetections copies are unaffected),
// and a result must not be released twice: that would let two later Detect
// calls share one struct, so it panics instead. Features is NOT recycled
// here: hand it to Detector.Recycle first, or keep it (label generation
// moves each result's feature map onto its label, then releases the
// result). Hot eval loops and the serving step release each frame's result
// after copying out the survivors.
func (r *Result) Release() {
	if r == nil {
		return
	}
	if r.released {
		panic("rfcn: Result released twice; the pool would hand one result to two Detect calls")
	}
	for i := range r.Detections {
		r.Detections[i].ClassProbs = nil
	}
	*r = Result{
		Detections: r.Detections[:0],
		proposals:  r.proposals[:0],
		probBuf:    r.probBuf,
		released:   true,
	}
	resultPool.Put(r)
}

// PlainDetections strips the raw detections to the evaluation type.
func (r *Result) PlainDetections() []detect.Detection {
	return r.AppendDetections(make([]detect.Detection, 0, len(r.Detections)))
}

// AppendDetections appends the plain detections to dst and returns the
// extended slice; the copies stay valid after the result is released.
func (r *Result) AppendDetections(dst []detect.Detection) []detect.Detection {
	for i := range r.Detections {
		dst = append(dst, r.Detections[i].Detection)
	}
	return dst
}

// Detect runs the behavioural detector on frame f at the given test scale
// (shortest side in pixels; a scale below 1 counts as 1, and past 600 the
// model extrapolates). It does not rasterise the frame.
func (d *Detector) Detect(f *synth.Frame, scale int) *Result {
	if scale < 1 {
		scale = 1
	}
	factor := scaleToFactor(f, scale)
	nClasses := len(d.Data.Classes)

	// Candidate lists live only for the duration of this call (the output
	// copies the survivors), so the backing arrays come from a pool and
	// steady-state detection allocates only what the Result retains — and
	// even that recycles when the caller hands the Result back via Release.
	res := resultPool.Get().(*Result)
	sc := detScratchPool.Get().(*detScratch)
	raw := sc.raw[:0]     // candidate detections, pre-NMS
	probs := sc.probs[:0] // index in raw → class probs
	proposals := res.proposals[:0]
	arena := probArena{buf: res.probBuf}

	// True-positive candidates (plus near-duplicates for NMS to prune).
	for gi, obj := range f.Objects {
		rng := seededRng(f.Seed() ^ int64(obj.ID+1)*0x5DEECE66D)
		uFrame := rng.Float64()
		uMix := rng.Float64()
		// Detection outcomes are temporally correlated: on most frames the
		// draw is the track-level one (a hard object stays missed across
		// the snippet); occasionally it re-rolls. The mixture keeps the
		// marginal distribution exactly uniform.
		trackRng := seededRng(f.TrackSeed() ^ int64(obj.ID+1)*0x5DEECE66D)
		uDet := trackRng.Float64()
		rngScratch.Put(trackRng)
		if uMix >= 0.6 {
			uDet = uFrame
		}
		uScore := float64(rng.Float64())
		uCls := rng.Float64()
		z := [4]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		uPart1, uPart2 := rng.Float64(), rng.Float64()
		dupJitter := [2]float64{rng.NormFloat64(), rng.NormFloat64()}
		rngScratch.Put(rng)

		p := d.Data.Classes[obj.Class]
		q := d.quality(obj, p, f, factor)

		// RPN proposal: high recall across a wide size range (anchors run
		// 128..512 at the training scale), independent of whether the
		// classification head succeeds below.
		apparentShort := float64(obj.Box.Shortest() * factor)
		uProp := frac(float64(uFrame*31) + float64(uMix*17))
		pProp := 0.95 * sigmoid((apparentShort-25)/8) * sigmoid((560-apparentShort)/60)
		if uProp < pProp {
			proposals = append(proposals, obj.Box)
		}

		if uDet >= q {
			continue // missed at this scale
		}
		// Confidence sits well above the false-positive score band so that
		// ranking (and with it AP) is driven by recall, as for a detector
		// with a well-calibrated classifier.
		score := clamp01(0.35 + float64(0.6*q) + float64(0.1*(uScore-0.5)))

		// Classification: mostly correct; multi-scale confusion classes
		// flip more often (Sec. 4.3's red panda / bear effect).
		pCorrect := 0.99 - float64(0.05*(1-q))
		if d.MultiScale() {
			pCorrect -= 2.0 * p.MSConfusion
		}
		class := obj.Class
		if uCls >= clamp01(pCorrect) {
			class = (obj.Class + 1 + int(uCls*1e6)%(nClasses-1)) % nClasses
		}

		// Localisation: error is roughly constant in test-scale pixels, so
		// it grows in native coordinates as the image shrinks.
		errStd := (1.2 + float64((1-q)*4.5)) / factor
		box := detect.Box{
			X1: obj.Box.X1 + float64(z[0]*errStd),
			Y1: obj.Box.Y1 + float64(z[1]*errStd),
			X2: obj.Box.X2 + float64(z[2]*errStd),
			Y2: obj.Box.Y2 + float64(z[3]*errStd),
		}
		if box.X2 <= box.X1+1 || box.Y2 <= box.Y1+1 {
			box = obj.Box
		}
		raw = append(raw, detect.Detection{Box: box, Class: class, Score: score, GTIndex: gi})
		probs = append(probs, classProbs(&arena, nClasses, class, score))

		// A weaker duplicate proposal that NMS should suppress.
		dup := box.Shifted(float64(dupJitter[0]*errStd*1.5), float64(dupJitter[1]*errStd*1.5))
		raw = append(raw, detect.Detection{Box: dup, Class: class, Score: score * 0.8, GTIndex: gi})
		probs = append(probs, classProbs(&arena, nClasses, class, score*0.8))

		// Detail-driven part false positives: at high resolution, textured
		// parts of a large object are detected as spurious objects
		// (paper Fig. 1's motivating failure).
		apparent := float64(obj.Box.Shortest() * factor)
		partIntensity := obj.Texture.Complexity() * 0.8 * sigmoid((apparent-180)/60)
		for pi, u := range []float64{uPart1, uPart2} {
			if u >= partIntensity {
				continue
			}
			pw, ph := obj.Box.W(), obj.Box.H()
			px := obj.Box.X1 + float64((0.15+float64(0.5*u))*pw)
			py := obj.Box.Y1 + float64((0.15+float64(0.4*frac(float64(u*7))))*ph)
			ps := float64(0.25 * math.Min(pw, ph) * (0.8 + float64(0.6*frac(float64(u*13)))))
			pBox := detect.Box{X1: px, Y1: py, X2: px + ps, Y2: py + float64(ps*0.9)}
			pClass := (obj.Class + 3 + pi) % nClasses
			pScore := clamp01(0.15 + float64(0.35*frac(float64(u*29))))
			raw = append(raw, detect.Detection{Box: pBox, Class: pClass, Score: pScore, GTIndex: -1})
			probs = append(probs, classProbs(&arena, nClasses, pClass, pScore))
		}
	}

	// Clutter-driven false positives: candidates activate as resolution
	// (and with it distracting background detail) increases. Sensor faults
	// modulate the intensity: empty frames spawn nothing, noise bursts
	// activate extra spurious responses.
	fpIntensity := 0.4 * f.Clutter * fpTrainingFactor(d.TrainScales) *
		math.Pow(float64(scale)/600.0, 1.2) * f.Fault.FPFactor()
	frng := seededRng(f.Seed() ^ 0x4FD1EB)
	const nCandidates = 28
	for j := 0; j < nCandidates; j++ {
		tau := (float64(j) + float64(frng.Float64())) / nCandidates
		uPos1, uPos2 := frng.Float64(), frng.Float64()
		uSize := frng.Float64()
		uClass := frng.Float64()
		uScore := frng.Float64()
		if tau >= fpIntensity {
			continue
		}
		size := 40 + float64(uSize*110)
		cx := float64(uPos1 * float64(f.W))
		cy := float64(uPos2 * float64(f.H))
		half := float64(size / 2)
		box := detect.Box{X1: cx - half, Y1: cy - half, X2: cx + half, Y2: cy + float64(size*0.45)}
		if overlapsGT(box, f) {
			// Slide away from ground truth so this stays a false positive.
			box = box.Shifted(float64(size*1.5), float64(size*1.2))
		}
		class := fpClass(f, nClasses, uClass)
		score := 0.12 + float64(0.5*uScore*uScore)
		if uScore > 0.95 {
			score += 0.3 // occasional confident false positive
		}
		raw = append(raw, detect.Detection{Box: box, Class: class, Score: score, GTIndex: -1})
		probs = append(probs, classProbs(&arena, nClasses, class, score))
	}
	rngScratch.Put(frng)

	kept := detect.NMSAppend(sc.kept[:0], raw, NMSThreshold, TopK)
	out := res.Detections[:0]
	for _, k := range kept {
		out = append(out, RawDetection{Detection: k, ClassProbs: matchProbs(raw, probs, k)})
	}
	// The prob vectors escape into out's ClassProbs (carved from the
	// result's arena buffer); drop the scratch container's references
	// before pooling it so the pool never pins a retired buffer.
	for i := range probs {
		probs[i] = nil
	}
	sc.raw, sc.probs, sc.kept = raw[:0], probs[:0], kept[:0]
	detScratchPool.Put(sc)
	*res = Result{
		Frame:      f,
		Scale:      scale,
		Detections: out,
		RuntimeMS:  d.cost.DetectMS(f.W, f.H, scale),
		proposals:  proposals,
		probBuf:    arena.buf,
	}
	return res
}

// Recycle returns a feature map obtained from DetectWithFeatures or
// Features to the detector's buffer pool. The tensor must not be used
// afterwards.
func (d *Detector) Recycle(t *tensor.Tensor) { d.backbone.Recycle(t) }

// DetectWithFeatures runs Detect and additionally rasterises the frame at
// the test scale and extracts deep features through the frozen backbone,
// stacking the detection-response planes from this very detection pass.
func (d *Detector) DetectWithFeatures(f *synth.Frame, scale int) *Result {
	r := d.Detect(f, scale)
	r.Features = d.features(f, scale, r)
	return r
}

// RenderSize reports the rendered image dimensions the backbone sees for
// frame f at the given test scale, without rendering: the same geometry as
// synth.Frame.Render (pinned by TestRenderSizeMatchesRender). Kept for
// benchmark/layer_*.go, which size their probe inputs with it and may not
// be edited; do not add callers. Pure arithmetic; safe for concurrent use.
func (d *Detector) RenderSize(f *synth.Frame, scale int) (h, w int) {
	div := d.Data.RenderDiv
	factor := raster.ScaleFactor(f.W, f.H, max(scale/div, 16)*div, MaxLongSide*div) / float64(div)
	w = max(int(math.Round(float64(f.W)*factor)), 1)
	h = max(int(math.Round(float64(f.H)*factor)), 1)
	return h, w
}

// Features rasterises frame f at the given test scale and returns the deep
// feature map (FeatureChannels × H/8 × W/8 of the rendered image): the
// frozen backbone's appearance planes plus size-selective response planes
// painted from the detector's outputs at this scale — everything a
// deployed system has available when Algorithm 1 regresses the next scale.
func (d *Detector) Features(f *synth.Frame, scale int) *tensor.Tensor {
	return d.features(f, scale, d.Detect(f, scale))
}

func (d *Detector) features(f *synth.Frame, scale int, r *Result) *tensor.Tensor {
	renderShort := scale / d.Data.RenderDiv
	if renderShort < 16 {
		renderShort = 16
	}
	im := f.RenderInto(&d.render, renderShort, MaxLongSide*d.Data.RenderDiv, d.Data.RenderDiv)
	h, w := d.backbone.featureSize(im)
	out := d.backbone.pool.GetTensor(FeatureChannels, h, w)
	d.backbone.extractInto(out, im)
	clear(out.Data()[backboneChannels*h*w:])

	// Paint the detection-response planes. Boxes are converted from native
	// coordinates to feature-map cells (render factor / backbone stride);
	// the channels encode apparent size, confidence, objectness density and
	// area coverage — the quantities R-FCN's position-sensitive maps carry.
	renderFactor := raster.ScaleFactor(f.W, f.H, renderShort*d.Data.RenderDiv, MaxLongSide*d.Data.RenderDiv) / float64(d.Data.RenderDiv)
	testFactor := scaleToFactor(f, scale)
	cell := renderFactor / backboneStride
	od := out.Data()
	plane := func(c int) []float32 { return od[c*h*w : (c+1)*h*w] }
	sizeP, scoreP, objP, areaP := plane(backboneChannels), plane(backboneChannels+1), plane(backboneChannels+2), plane(backboneChannels+3)
	for _, b := range r.proposals {
		x0 := clampInt(int(b.X1*cell), 0, w-1)
		x1 := clampInt(int(b.X2*cell), 0, w-1)
		y0 := clampInt(int(b.Y1*cell), 0, h-1)
		y1 := clampInt(int(b.Y2*cell), 0, h-1)
		apparent := float32(b.Shortest() * testFactor / 330.0 * 10)
		areaFrac := float32(b.W() * b.H() * cell * cell / float64(h*w) * 20)
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				i := y*w + x
				if apparent > sizeP[i] {
					sizeP[i] = apparent
				}
				if areaFrac > areaP[i] {
					areaP[i] = areaFrac
				}
			}
		}
	}
	for _, det := range r.Detections {
		x0 := clampInt(int(det.Box.X1*cell), 0, w-1)
		x1 := clampInt(int(det.Box.X2*cell), 0, w-1)
		y0 := clampInt(int(det.Box.Y1*cell), 0, h-1)
		y1 := clampInt(int(det.Box.Y2*cell), 0, h-1)
		// Magnitudes are balanced so the globally-pooled detection planes
		// land in the same range as the appearance planes; otherwise the
		// regressor's shared learning rate under-trains these channels.
		score := float32(det.Score * 5)
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				i := y*w + x
				if score > scoreP[i] {
					scoreP[i] = score
				}
				objP[i] += 2
			}
		}
	}
	return out
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// quality returns the probability the detector fires on obj at this scale.
// BaseQuality is a *target AP* calibration; the concave lift compensates
// for the AP the evaluation pipeline inevitably loses to false positives,
// duplicates and misclassification, so emergent per-class AP lands near
// BaseQuality while the size response keeps its full scale sensitivity.
func (d *Detector) quality(obj synth.Object, p synth.ClassProfile, f *synth.Frame, factor float64) float64 {
	apparent := obj.Box.Shortest() * factor
	q := math.Pow(p.BaseQuality, 0.35) * sizeResponse(apparent, d.TrainScales) * blurPenalty(f.Blur*factor)
	q *= scaleFamiliarity(testScaleOf(f, factor), d.TrainScales)
	if d.MultiScale() {
		q *= 1 - msQualityTax - float64(0.5*p.MSConfusion)
	}
	// Sensor faults degrade the response (overexposure washes objects out,
	// noise bursts drown them) in proportion to severity.
	q *= f.Fault.QualityFactor()
	return clamp01(q)
}

// testScaleOf recovers the tested shortest-side scale from the resize
// factor (the inverse of scaleToFactor, exact when the longest-side cap
// did not bind).
func testScaleOf(f *synth.Frame, factor float64) int {
	short := f.W
	if f.H < short {
		short = f.H
	}
	return int(math.Round(float64(short) * factor))
}

// scaleToFactor maps a native frame to the resize factor for a test scale.
func scaleToFactor(f *synth.Frame, scale int) float64 {
	short := f.W
	if f.H < short {
		short = f.H
	}
	fac := float64(scale) / float64(short)
	long := f.W
	if f.H > long {
		long = f.H
	}
	if float64(long)*fac > MaxLongSide {
		fac = MaxLongSide / float64(long)
	}
	return fac
}

// classProbs builds a classifier probability vector: index 0 is background,
// index 1+c is class c. The predicted class receives the score mass; the
// remainder splits between background and the other classes.
func classProbs(arena *probArena, nClasses, class int, score float64) []float64 {
	probs := arena.take(nClasses + 1)
	rest := 1 - score
	probs[0] = rest * 0.6
	other := rest * 0.4 / float64(nClasses-1)
	for c := 0; c < nClasses; c++ {
		if c == class {
			probs[1+c] = score
		} else {
			probs[1+c] = other
		}
	}
	return probs
}

// matchProbs finds the probability vector of the raw detection that
// survived NMS (NMS copies values, so match on content).
func matchProbs(raw []detect.Detection, probs [][]float64, k detect.Detection) []float64 {
	for i, r := range raw {
		if r.Box == k.Box && r.Class == k.Class && r.Score == k.Score {
			return probs[i]
		}
	}
	return nil
}

func overlapsGT(b detect.Box, f *synth.Frame) bool {
	for _, o := range f.Objects {
		if detect.IoU(b, o.Box) > 0.3 {
			return true
		}
	}
	return false
}

// fpClass picks a false positive's class: biased towards classes present in
// the frame (context confusions), otherwise uniform.
func fpClass(f *synth.Frame, nClasses int, u float64) int {
	if u < 0.6 && len(f.Objects) > 0 {
		return f.Objects[int(u*1e6)%len(f.Objects)].Class
	}
	return int(u*1e6) % nClasses
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func frac(v float64) float64 { return v - math.Floor(v) }
