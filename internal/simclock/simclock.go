// Package simclock models inference runtime. The paper reports wall-clock
// on a GTX 1080 Ti (R-FCN: 75 ms at scale 600 on ImageNet VID; scale
// regressor: 2 ms, "3% of the runtime of R-FCN"). Our substrate is a CPU
// simulator, so absolute wall-clock is meaningless for comparison; instead
// this cost model converts the *scale decisions* an algorithm makes — the
// real output of AdaScale — into milliseconds on the paper's reference
// hardware. Detector cost is an affine function of the number of input
// pixels, which is how convolutional backbone FLOPs scale.
package simclock

import (
	"math"

	"adascale/internal/raster"
)

// Model is a detector's cost model in milliseconds on the hardware it is
// calibrated to. A detector carries one (rfcn.Detector.Cost); every
// costing site reads it from there.
type Model struct {
	BaseMS    float64    // fixed per-image overhead (RPN/head bookkeeping, NMS, memory traffic)
	At600MS   float64    // the detector at scale 600
	Regressor [4]float64 // scale regressor overhead by kernel count: 0, 1, 2, 3 or more
	FlowMS    float64    // DFF's optical flow plus feature warping
	SeqNMSMS  float64    // Seq-NMS linkage and rescoring, amortised per frame
}

// Paper1080Ti returns the paper's GTX 1080 Ti calibration: R-FCN runs in
// 75 ms at scale 600; the {1,3} regressor costs 2 ms ({1} less, {1,3,5}
// more, Table 3's trend); DFF's flow is about 8x cheaper than detection.
func Paper1080Ti() *Model {
	return &Model{
		BaseMS:    8,
		At600MS:   75,
		Regressor: [4]float64{0, 1, 2, 3.8},
		FlowMS:    9.5,
		SeqNMSMS:  1.5,
	}
}

// refPixels is the pixel count of a 16:9 frame resized to scale 600 with
// the 2000-px longest-side cap (600 × 1067).
var refPixels = pixelsAtScale(1280, 720, 600, 2000)

func pixelsAtScale(w, h, scale, maxLong int) float64 {
	f := raster.ScaleFactor(w, h, scale, maxLong)
	return float64(w) * f * float64(h) * f
}

// DetectMS returns the modelled detector runtime in milliseconds for a
// native w×h frame tested at the given shortest-side scale.
func (m *Model) DetectMS(w, h, scale int) float64 {
	px := pixelsAtScale(w, h, scale, 2000)
	return m.BaseMS + (m.At600MS-m.BaseMS)*px/refPixels
}

// rescaleShare is the fraction of the resolution-dependent detector cost
// attributed to image rescaling (resize + normalise + layout) rather than
// the backbone + head; preprocessing is memory-bound and scales with
// pixels just like the convolutions, at roughly a tenth of their cost.
const rescaleShare = 0.1

// SplitDetectMS decomposes a DetectMS result into the stage costs the
// tracer attributes: decode (the fixed per-image bookkeeping, BaseMS),
// rescale (preprocessing share of the pixel term) and backbone (the rest —
// backbone + detection head). In float64 the three parts sum to detectorMS
// within one ulp (TestSplitDetectMSSum), so a stage breakdown neither
// invents nor loses time beyond rounding relative to the cost model.
func (m *Model) SplitDetectMS(detectorMS float64) (decodeMS, rescaleMS, backboneMS float64) {
	decodeMS = m.BaseMS
	if detectorMS < decodeMS {
		decodeMS = detectorMS
	}
	if decodeMS < 0 {
		decodeMS = 0
	}
	px := detectorMS - decodeMS
	rescaleMS = float64(px * rescaleShare)
	backboneMS = px - rescaleMS
	return decodeMS, rescaleMS, backboneMS
}

// RegressorMS returns the scale-regressor overhead for the given kernel
// set (e.g. []int{1,3}; the paper's default).
func (m *Model) RegressorMS(kernels []int) float64 {
	return m.Regressor[min(len(kernels), 3)]
}

// BudgetWindow is the rolling window (frames) of a Budget.
const BudgetWindow = 8

// Budget tracks modelled per-frame runtime over a rolling window of the
// last BudgetWindow frames — the accounting a deadline-aware runner holds
// against its per-frame deadline to decide when to force the next-lower
// test scale. The zero Budget is empty, and a copy of a Budget is its whole
// state: a budget copied out and back resumes bit for bit.
type Budget struct {
	window [BudgetWindow]float64 // ring buffer of recent per-frame charges
	next   int                   // ring write position
	filled int                   // number of valid entries
	sum    float64               // sum of valid entries
}

// Charge records one frame's modelled cost in milliseconds (detector +
// overheads + arrival jitter).
func (b *Budget) Charge(ms float64) {
	if b.filled == BudgetWindow {
		b.sum -= b.window[b.next]
	} else {
		b.filled++
	}
	b.window[b.next] = ms
	b.sum += ms
	b.next = (b.next + 1) % BudgetWindow
}

// MeanMS returns the rolling mean per-frame cost (0 before any charge).
func (b *Budget) MeanMS() float64 {
	if b.filled == 0 {
		return 0
	}
	return b.sum / float64(b.filled)
}

// Exceeded reports whether the rolling mean is over deadlineMS; a
// zero/negative deadline disables enforcement (always false).
func (b *Budget) Exceeded(deadlineMS float64) bool {
	return deadlineMS > 0 && b.filled > 0 && b.MeanMS() > deadlineMS
}

// Headroom returns deadlineMS − rolling mean (positive = under budget);
// +Inf when the deadline is disabled.
func (b *Budget) Headroom(deadlineMS float64) float64 {
	if deadlineMS <= 0 {
		return math.Inf(1)
	}
	return deadlineMS - b.MeanMS()
}
