package scaleopt

import (
	"math"

	"adascale/internal/detect"
	"adascale/internal/rfcn"
)

// This file implements the *naive* scale comparison the paper argues
// against (Sec. 3.1): summing Eq. 1 over all predicted boxes without
// foreground-count equalisation. Because background boxes contribute no
// regression loss and foreground boxes contribute a positive one, the naive
// total "will favor the image scale with fewer foreground bounding boxes" —
// i.e. scales that simply detect less. It exists so the ablation
// (experiments and tests) can demonstrate the bias the paper's metric
// fixes.

// NaiveLoss sums Eq. 1 over every detection of the result, foreground and
// background alike.
func NaiveLoss(r *rfcn.Result, gts []detect.GroundTruth, lambda float64) float64 {
	assign := detect.AssignForeground(r.PlainDetections(), gts)
	var sum float64
	for i, d := range r.Detections {
		sum += BoxLoss(d, gts, assign[i], lambda)
	}
	return sum
}

// CompareNaive selects the scale minimising the naive total loss. Results
// order follows the input; ties resolve to the earlier entry.
func CompareNaive(results []*rfcn.Result, gts []detect.GroundTruth, lambda float64) ([]Evaluation, int) {
	evals := make([]Evaluation, len(results))
	bestIdx, bestLoss := 0, math.Inf(1)
	for i, r := range results {
		loss := NaiveLoss(r, gts, lambda)
		evals[i] = Evaluation{Scale: r.Scale, Loss: loss}
		if loss < bestLoss {
			bestIdx, bestLoss = i, loss
		}
	}
	return evals, evals[bestIdx].Scale
}
