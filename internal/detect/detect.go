// Package detect defines the shared detection vocabulary — boxes,
// detections, ground truth — plus the geometric and algorithmic primitives
// every stage of the pipeline relies on: Jaccard overlap (IoU), greedy
// Non-Maximum Suppression (the paper uses threshold 0.3 and keeps the
// top-300 boxes), and foreground assignment at IoU ≥ 0.5.
package detect

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
)

// Box is an axis-aligned bounding box in native image coordinates
// (x1,y1 top-left inclusive, x2,y2 bottom-right exclusive-ish; float
// coordinates, x2>x1 and y2>y1 for non-degenerate boxes).
type Box struct {
	X1, Y1, X2, Y2 float64
}

// W returns the box width (0 if degenerate).
func (b Box) W() float64 {
	if b.X2 <= b.X1 {
		return 0
	}
	return b.X2 - b.X1
}

// H returns the box height (0 if degenerate).
func (b Box) H() float64 {
	if b.Y2 <= b.Y1 {
		return 0
	}
	return b.Y2 - b.Y1
}

// Area returns the box area.
func (b Box) Area() float64 { return float64(b.W() * b.H()) }

// Center returns the box centre point.
func (b Box) Center() (float64, float64) {
	return float64((b.X1 + b.X2) / 2), float64((b.Y1 + b.Y2) / 2)
}

// Shortest returns the shorter box side, the quantity compared against the
// RPN's smallest anchor (128 px in the paper).
func (b Box) Shortest() float64 {
	if b.W() < b.H() {
		return b.W()
	}
	return b.H()
}

// Scaled returns the box with all coordinates multiplied by f, mapping
// between image scales.
func (b Box) Scaled(f float64) Box {
	return Box{X1: float64(b.X1 * f), Y1: float64(b.Y1 * f), X2: float64(b.X2 * f), Y2: float64(b.Y2 * f)}
}

// Shifted returns the box translated by (dx, dy).
func (b Box) Shifted(dx, dy float64) Box {
	return Box{X1: b.X1 + dx, Y1: b.Y1 + dy, X2: b.X2 + dx, Y2: b.Y2 + dy}
}

// String renders the box compactly for logs.
func (b Box) String() string {
	return fmt.Sprintf("[%.1f,%.1f,%.1f,%.1f]", b.X1, b.Y1, b.X2, b.Y2)
}

// IoU returns the Jaccard overlap (intersection over union) of two boxes,
// in [0, 1]. Degenerate boxes yield 0 — including boxes carrying NaN or
// infinite coordinates, whose inverted comparisons would otherwise leak
// NaN into every downstream threshold (the guards are written as negated
// positives so a NaN intermediate takes the zero path).
func IoU(a, b Box) float64 {
	ix1, iy1 := maxf(a.X1, b.X1), maxf(a.Y1, b.Y1)
	ix2, iy2 := minf(a.X2, b.X2), minf(a.Y2, b.Y2)
	iw, ih := ix2-ix1, iy2-iy1
	if !(iw > 0) || !(ih > 0) {
		return 0
	}
	inter := float64(iw * ih)
	union := a.Area() + b.Area() - inter
	if !(union > 0) {
		return 0
	}
	r := inter / union
	if math.IsNaN(r) || r < 0 {
		return 0
	}
	if r > 1 {
		return 1
	}
	return r
}

// Detection is one detector output: a box, a predicted class, and a
// confidence score in [0, 1].
type Detection struct {
	Box   Box
	Class int
	Score float64

	// GTIndex links the detection to the ground-truth object that produced
	// it in the behavioural detector (-1 for false positives). Evaluation
	// code must not read it; it exists for tracing and tests.
	GTIndex int
}

// GroundTruth is one annotated object.
type GroundTruth struct {
	Box   Box
	Class int
}

// ByScore orders detections by descending score, for slices.SortStableFunc.
// That sort is generated from sort.Stable's template and only ever asks
// whether a comparison is negative, so a comparison that is negative exactly
// when sort.Stable's Less would be true makes the same swaps in the same
// order — NaN scores, greater and less than nothing, included — without an
// interface conversion or a reflection swapper per call.
func ByScore(a, b Detection) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	}
	return 0
}

// NMS performs class-wise greedy non-maximum suppression with the given IoU
// threshold, returning at most topK detections sorted by descending score
// (topK ≤ 0 means unlimited). The paper uses threshold 0.3 and topK 300.
//
// One stable sort by (class, -score) replaces the historical
// group-by-class-map + sorted-class iteration + per-class stable score
// sort: grouping preserved the input's relative order within a class, so
// both arrangements list classes ascending with each class segment in
// stable descending-score order, and the greedy suppression — purely
// per-class — sees each segment in the identical order. The output is
// therefore unchanged, detection for detection.
func NMS(dets []Detection, iouThreshold float64, topK int) []Detection {
	return NMSAppend(nil, dets, iouThreshold, topK)
}

// nmsKey is what NMS sorts in place of a 56-byte Detection: the two sort
// keys and the detection's index in the input.
type nmsKey struct {
	class int
	score float64
	i     int
}

// keyByClassScore orders keys by class ascending, then score descending.
func keyByClassScore(a, b nmsKey) int {
	if c := cmp.Compare(a.class, b.class); c != 0 {
		return c
	}
	return ByScore(Detection{Score: a.score}, Detection{Score: b.score})
}

// keyByScore orders keys by descending score.
func keyByScore(a, b nmsKey) int {
	return ByScore(Detection{Score: a.score}, Detection{Score: b.score})
}

// nmsScratch holds NMS's sort keys, the survivors' keys and the suppression
// flags between calls; all are rebuilt before use, so a recycled instance is
// indistinguishable from a fresh one.
type nmsScratch struct {
	keys, kept []nmsKey
	suppressed []bool
}

var nmsScratchPool = sync.Pool{New: func() any { return new(nmsScratch) }}

// NMSAppend is NMS with caller-owned result storage: surviving detections
// are appended to dst (which may be nil) and the extended slice returned.
// Only the appended segment is ordered and truncated to topK; anything
// already in dst is left untouched. The sort keys and suppression flags come
// from a pool, so a steady-state caller passing a recycled dst allocates
// nothing.
//
// Both sorts move small keys, not detections. slices.SortStableFunc makes
// the same comparisons and moves for the same comparison results whatever
// it sorts, so the keys end in the order the detections themselves would —
// NaN scores, which compare as neither greater nor less, included.
func NMSAppend(dst, dets []Detection, iouThreshold float64, topK int) []Detection {
	if len(dets) == 0 {
		return dst
	}
	sc := nmsScratchPool.Get().(*nmsScratch)
	keys := sc.keys[:0]
	for i, d := range dets {
		keys = append(keys, nmsKey{d.Class, d.Score, i})
	}
	suppressed := slices.Grow(sc.suppressed[:0], len(dets))[:len(dets)]
	clear(suppressed)
	slices.SortStableFunc(keys, keyByClassScore)
	kept := sc.kept[:0]
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		for hi < len(keys) && keys[hi].class == keys[lo].class {
			hi++
		}
		for i := lo; i < hi; i++ {
			if suppressed[i] {
				continue
			}
			kept = append(kept, keys[i])
			box := dets[keys[i].i].Box
			for j := i + 1; j < hi; j++ {
				if !suppressed[j] && IoU(box, dets[keys[j].i].Box) > iouThreshold {
					suppressed[j] = true
				}
			}
		}
		lo = hi
	}
	slices.SortStableFunc(kept, keyByScore)
	if topK > 0 && len(kept) > topK {
		kept = kept[:topK]
	}
	for _, k := range kept {
		dst = append(dst, dets[k.i])
	}
	sc.keys, sc.kept, sc.suppressed = keys, kept, suppressed
	nmsScratchPool.Put(sc)
	return dst
}

// ForegroundIoU is the Jaccard threshold above which a predicted box is
// assigned to a ground-truth object (foreground), per the paper.
const ForegroundIoU = 0.5

// AssignForeground assigns each detection the index of the best-overlapping
// ground truth with IoU ≥ ForegroundIoU, or -1 for background. Class labels
// are not consulted: assignment is purely geometric, matching the loss
// convention of Eq. 1 where u is then read from the matched ground truth.
func AssignForeground(dets []Detection, gts []GroundTruth) []int {
	assign := make([]int, len(dets))
	for i, d := range dets {
		best, bestIoU := -1, ForegroundIoU
		for g, gt := range gts {
			if iou := IoU(d.Box, gt.Box); iou >= bestIoU {
				best, bestIoU = g, iou
			}
		}
		assign[i] = best
	}
	return assign
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
