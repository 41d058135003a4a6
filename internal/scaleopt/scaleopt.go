// Package scaleopt implements Section 3.1 of the paper: the loss-based
// metric that decides which test scale is optimal for an image.
//
// Mean average precision is too sparse to compare scales on a single image,
// so the paper scores each scale with the detector's training loss (Eq. 1,
// classification + λ·[u≥1]·bounding-box regression). Because the plain loss
// assigns background boxes zero regression loss, it would favour scales
// that simply produce fewer foreground boxes; the paper's fix — implemented
// here exactly — compares every scale on the *same number* of foreground
// boxes: n_min, the minimum foreground count across scales, taking each
// scale's n_min lowest-loss foreground boxes (Fig. 3). The optimal scale is
// the argmin of that equalised loss (Eq. 2).
package scaleopt

import (
	"math"
	"sort"

	"adascale/internal/detect"
	"adascale/internal/nn"
	"adascale/internal/rfcn"
	"adascale/internal/synth"
)

// DefaultLambda is the regression-loss weight λ in Eq. 1; Fast R-CNN and
// R-FCN use 1.
const DefaultLambda = 1.0

// BoxLoss evaluates Eq. 1 for one predicted box. gtIndex is the foreground
// assignment (index into gts, or -1 for background). For background boxes
// only the classification term contributes ([u ≥ 1] gates regression).
func BoxLoss(d rfcn.RawDetection, gts []detect.GroundTruth, gtIndex int, lambda float64) float64 {
	u := 0 // background label
	if gtIndex >= 0 {
		u = 1 + gts[gtIndex].Class
	}
	cls := nn.CrossEntropy(d.ClassProbs, u)
	if gtIndex < 0 {
		return cls
	}
	reg := 0.0
	for _, t := range FastRCNNOffsets(d.Box, gts[gtIndex].Box) {
		reg += nn.SmoothL1Scalar(t)
	}
	return cls + float64(lambda*reg)
}

// FastRCNNOffsets returns the (tx, ty, tw, th) regression targets between a
// predicted box and its ground truth, in the Fast R-CNN parameterisation.
// A perfect prediction has all-zero offsets, hence zero regression loss.
func FastRCNNOffsets(pred, gt detect.Box) [4]float64 {
	pw, ph := math.Max(pred.W(), 1), math.Max(pred.H(), 1)
	gw, gh := math.Max(gt.W(), 1), math.Max(gt.H(), 1)
	pcx, pcy := pred.Center()
	gcx, gcy := gt.Center()
	return [4]float64{
		(gcx - pcx) / pw,
		(gcy - pcy) / ph,
		math.Log(gw / pw),
		math.Log(gh / ph),
	}
}

// ForegroundLosses returns the Eq. 1 losses of the result's foreground
// boxes (IoU ≥ 0.5 with some ground truth), sorted ascending.
func ForegroundLosses(r *rfcn.Result, gts []detect.GroundTruth, lambda float64) []float64 {
	assign := detect.AssignForeground(r.PlainDetections(), gts)
	var losses []float64
	for i, d := range r.Detections {
		if assign[i] >= 0 {
			losses = append(losses, BoxLoss(d, gts, assign[i], lambda))
		}
	}
	sort.Float64s(losses)
	return losses
}

// Evaluation is the per-scale outcome of the metric for one image.
type Evaluation struct {
	Scale int
	Loss  float64 // L̂ᵢᵐ over the n_min lowest-loss foreground boxes
}

// Compare computes L̂ᵢᵐ for each scale from precomputed detector results and
// returns the evaluations in the order of results plus the optimal scale.
//
// Deviation from the paper (which leaves the corner case unspecified): a
// scale with zero foreground boxes cannot be compared by the metric and is
// assigned +Inf loss; n_min is then taken over the scales that detected
// anything. If no scale produced a foreground box the largest scale is
// returned, the conservative choice for recovering the object.
func Compare(results []*rfcn.Result, gts []detect.GroundTruth, lambda float64) ([]Evaluation, int) {
	evals := make([]Evaluation, len(results))
	perScale := make([][]float64, len(results))
	nMin := math.MaxInt
	for i, r := range results {
		perScale[i] = ForegroundLosses(r, gts, lambda)
		evals[i] = Evaluation{Scale: r.Scale}
		if n := len(perScale[i]); n > 0 && n < nMin {
			nMin = n
		}
	}
	if nMin == math.MaxInt {
		best := 0
		for i, e := range evals {
			evals[i].Loss = math.Inf(1)
			if e.Scale > evals[best].Scale {
				best = i
			}
		}
		return evals, evals[best].Scale
	}
	bestIdx, bestLoss := -1, math.Inf(1)
	for i := range results {
		if len(perScale[i]) == 0 {
			evals[i].Loss = math.Inf(1)
			continue
		}
		sum := 0.0
		for _, l := range perScale[i][:nMin] {
			sum += l
		}
		evals[i].Loss = sum
		// Strict less-than: ties resolve to the earlier (by convention the
		// larger, detector-friendlier) scale in the results order.
		if sum < bestLoss {
			bestIdx, bestLoss = i, sum
		}
	}
	return evals, evals[bestIdx].Scale
}

// OptimalScale runs the detector on frame f at every scale in scales and
// returns the metric's optimal scale (Eq. 2) with the per-scale
// evaluations. scales are evaluated in the given order; list larger scales
// first so ties resolve conservatively.
func OptimalScale(det *rfcn.Detector, f *synth.Frame, scales []int, lambda float64) (int, []Evaluation) {
	results := make([]*rfcn.Result, len(scales))
	for i, s := range scales {
		results[i] = det.Detect(f, s)
	}
	evals, best := Compare(results, f.GroundTruth(), lambda)
	return best, evals
}
