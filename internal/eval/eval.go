// Package eval implements detection evaluation: VOC-style per-class
// average precision and mAP (the paper evaluates ImageNet VID with the
// standard IoU ≥ 0.5 criterion), full precision-recall curves (Fig. 5),
// and raw true/false-positive counting (Fig. 6).
package eval

import (
	"slices"

	"adascale/internal/detect"
)

// MatchIoU is the IoU threshold above which a detection matches a ground
// truth of the same class.
const MatchIoU = 0.5

// FrameDetections pairs one frame's detections with its ground truth.
type FrameDetections struct {
	Detections  []detect.Detection
	GroundTruth []detect.GroundTruth
}

// PRPoint is one point of a precision-recall curve.
type PRPoint struct {
	Recall    float64
	Precision float64
}

// ClassResult is the evaluation outcome for a single class.
type ClassResult struct {
	Class int
	AP    float64
	Curve []PRPoint

	// TP and FP count all emitted detections of this class (the Fig. 6
	// analysis); NumGT is the number of ground-truth instances.
	TP, FP int
	NumGT  int
}

// Result is a full evaluation.
type Result struct {
	PerClass []ClassResult

	// MAP is the mean AP over classes that have at least one ground-truth
	// instance.
	MAP float64
}

// Evaluate scores detections against ground truth for nClasses classes.
// Within each class, detections are sorted by descending confidence and
// greedily matched to the highest-IoU unmatched ground truth of that class
// in their frame (IoU ≥ MatchIoU); AP is the area under the
// all-points-interpolated precision-recall curve (VOC 2010+).
func Evaluate(frames []FrameDetections, nClasses int) *Result {
	if nClasses < 0 {
		nClasses = 0
	}
	res := &Result{PerClass: make([]ClassResult, nClasses)}

	type scored struct {
		score float64
		tp    bool
	}
	// Each class's list is allocated once at the size a first pass counts,
	// and one sort buffer and one match buffer serve every frame: what
	// Evaluate allocates grows with the class count, not the frame count.
	numGT, numDets := make([]int, nClasses), make([]int, nClasses)
	for _, fr := range frames {
		for _, gt := range fr.GroundTruth {
			// Out-of-range GT classes are skipped rather than crashing the
			// evaluation (the matching loop below never pairs them either,
			// since detection classes are range-checked).
			if gt.Class >= 0 && gt.Class < nClasses {
				numGT[gt.Class]++
			}
		}
		for _, d := range fr.Detections {
			if d.Class >= 0 && d.Class < nClasses {
				numDets[d.Class]++
			}
		}
	}
	perClass := make([][]scored, nClasses)
	for c, n := range numDets {
		perClass[c] = make([]scored, 0, n)
	}
	var dets []detect.Detection
	var used []bool

	for _, fr := range frames {
		// Sort this frame's detections by score so greedy matching is
		// confidence-first within the frame.
		dets = append(dets[:0], fr.Detections...)
		slices.SortStableFunc(dets, detect.ByScore)
		used = slices.Grow(used[:0], len(fr.GroundTruth))[:len(fr.GroundTruth)]
		clear(used)
		for _, d := range dets {
			if d.Class < 0 || d.Class >= nClasses {
				continue
			}
			best, bestIoU := -1, MatchIoU
			for g, gt := range fr.GroundTruth {
				if gt.Class != d.Class || used[g] {
					continue
				}
				if iou := detect.IoU(d.Box, gt.Box); iou >= bestIoU {
					best, bestIoU = g, iou
				}
			}
			tp := best >= 0
			if tp {
				used[best] = true
			}
			perClass[d.Class] = append(perClass[d.Class], scored{score: d.Score, tp: tp})
		}
	}

	var mapSum float64
	var mapN int
	for c := 0; c < nClasses; c++ {
		cr := &res.PerClass[c]
		cr.Class = c
		cr.NumGT = numGT[c]
		slices.SortStableFunc(perClass[c], func(a, b scored) int {
			return detect.ByScore(detect.Detection{Score: a.score}, detect.Detection{Score: b.score})
		})
		tp, fp := 0, 0
		var curve []PRPoint
		if numGT[c] > 0 && len(perClass[c]) > 0 {
			curve = make([]PRPoint, 0, len(perClass[c]))
		}
		for _, s := range perClass[c] {
			if s.tp {
				tp++
			} else {
				fp++
			}
			if numGT[c] > 0 {
				curve = append(curve, PRPoint{
					Recall:    float64(tp) / float64(numGT[c]),
					Precision: float64(tp) / float64(tp+fp),
				})
			}
		}
		cr.TP, cr.FP = tp, fp
		cr.Curve = curve
		if numGT[c] > 0 {
			cr.AP = areaUnderPR(curve)
			mapSum += cr.AP
			mapN++
		}
	}
	if mapN > 0 {
		res.MAP = mapSum / float64(mapN)
	}
	return res
}

// areaUnderPR integrates the precision envelope over recall: precision at
// each recall level is replaced by the maximum precision at any ≥ recall
// (the standard interpolation), then summed over recall increments.
func areaUnderPR(curve []PRPoint) float64 {
	if len(curve) == 0 {
		return 0
	}
	// Envelope: running max of precision from the right.
	env := make([]float64, len(curve))
	maxP := 0.0
	for i := len(curve) - 1; i >= 0; i-- {
		if curve[i].Precision > maxP {
			maxP = curve[i].Precision
		}
		env[i] = maxP
	}
	ap := 0.0
	prevR := 0.0
	for i, p := range curve {
		if p.Recall > prevR {
			ap += float64((p.Recall - prevR) * env[i])
			prevR = p.Recall
		}
	}
	return ap
}

// TPFPCounts sums TP and FP over all classes — the totals the paper
// normalises in Fig. 6.
func (r *Result) TPFPCounts() (tp, fp int) {
	for _, c := range r.PerClass {
		tp += c.TP
		fp += c.FP
	}
	return tp, fp
}

// CurveAt returns the PR curve for one class (nil if the class was never
// detected or annotated).
func (r *Result) CurveAt(class int) []PRPoint {
	if class < 0 || class >= len(r.PerClass) {
		return nil
	}
	return r.PerClass[class].Curve
}
