// Package seqnms implements Seq-NMS (Han et al., 2016), the offline video
// detection post-processor the paper composes with AdaScale in Sec. 4.6.
//
// Seq-NMS links same-class detections in consecutive frames when their IoU
// exceeds a threshold, repeatedly extracts the maximum-total-score temporal
// chain by dynamic programming, rescores the chain's members (average
// rescoring), removes them, and suppresses the detections they overlap in
// their own frames. Consistent object tracks get their weak members pulled
// up the ranking, which is where the mAP gain comes from; flickering false
// positives stay unlinked and sink.
package seqnms

import (
	"slices"

	"adascale/internal/detect"
)

// Thresholds from the Seq-NMS paper.
const (
	// linkIoU is the minimum IoU for a cross-frame link.
	linkIoU = 0.5

	// suppressIoU is the within-frame suppression threshold applied
	// around selected chain members (matching the detector's NMS level).
	suppressIoU = 0.3
)

// Options configures Apply. It has no fields: Apply always runs at the
// Seq-NMS paper's thresholds with average rescoring (the paper's
// best-performing variant).
type Options struct{}

// Apply runs Seq-NMS over a snippet's per-frame detections and returns the
// rescored per-frame detections (same frame count; detections suppressed by
// a selected chain are dropped). The input is not modified.
func Apply(frames [][]detect.Detection, _ Options) [][]detect.Detection {
	// Working copy with liveness flags.
	type node struct {
		det   detect.Detection
		alive bool
		taken bool // selected into a chain (final)
		score float64
	}
	// The nodes, the DP tables and the traced chain are allocated once for
	// the snippet, each table one array carved into per-frame sub-slices of
	// clipped capacity. Every pass below overwrites every entry of best and
	// prev before it reads it, so one pass's values never leak into the
	// next; a chain holds at most one node per frame.
	type ref struct{ t, i int }
	total := 0
	for _, dets := range frames {
		total += len(dets)
	}
	nodes, bests, prevs := make([]node, total), make([]float64, total), make([]int, total)
	work := make([][]node, len(frames))
	best := make([][]float64, len(frames))
	prev := make([][]int, len(frames))
	chain := make([]ref, 0, len(frames))
	for t, dets := range frames {
		n := len(dets)
		work[t], best[t], prev[t] = nodes[:n:n], bests[:n:n], prevs[:n:n]
		nodes, bests, prevs = nodes[n:], bests[n:], prevs[n:]
		for i, d := range dets {
			work[t][i] = node{det: d, alive: true, score: d.Score}
		}
	}
	remaining, suppressed := total, 0

	for remaining > 0 {
		// Dynamic programming for the maximum-score chain over alive nodes:
		// best[t][i] = det score + max over linked predecessors.
		var maxScore float64 = -1
		maxT, maxI := -1, -1
		for t := range work {
			for i := range work[t] {
				if !work[t][i].alive {
					best[t][i] = -1
					prev[t][i] = -1
					continue
				}
				best[t][i] = work[t][i].det.Score
				prev[t][i] = -1
				if t > 0 {
					for j := range work[t-1] {
						if !work[t-1][j].alive || best[t-1][j] < 0 {
							continue
						}
						if work[t-1][j].det.Class != work[t][i].det.Class {
							continue
						}
						if detect.IoU(work[t-1][j].det.Box, work[t][i].det.Box) <= linkIoU {
							continue
						}
						if cand := best[t-1][j] + work[t][i].det.Score; cand > best[t][i] {
							best[t][i] = cand
							prev[t][i] = j
						}
					}
				}
				if best[t][i] > maxScore {
					maxScore, maxT, maxI = best[t][i], t, i
				}
			}
		}
		if maxT < 0 {
			break
		}

		// Trace the chain back.
		chain = chain[:0]
		for t, i := maxT, maxI; i >= 0; {
			chain = append(chain, ref{t, i})
			pi := prev[t][i]
			t, i = t-1, pi
		}

		// Rescore: every chain member gets the chain's mean score.
		var sum float64
		for _, r := range chain {
			sum += work[r.t][r.i].det.Score
		}
		newScore := sum / float64(len(chain))

		// Commit the chain and suppress the overlapped.
		for _, r := range chain {
			n := &work[r.t][r.i]
			n.alive = false
			n.taken = true
			n.score = newScore
			remaining--
			for j := range work[r.t] {
				o := &work[r.t][j]
				if !o.alive || o.det.Class != n.det.Class {
					continue
				}
				if detect.IoU(o.det.Box, n.det.Box) > suppressIoU {
					o.alive = false // suppressed, not emitted
					remaining--
					suppressed++
				}
			}
		}
	}

	// Emit: chain members with their new scores; untouched nodes keep
	// their original scores; suppressed nodes are dropped. Every frame's
	// survivors share one array; a frame with none stays nil.
	emitted := make([]detect.Detection, 0, total-suppressed)
	out := make([][]detect.Detection, len(frames))
	for t := range work {
		start := len(emitted)
		for _, n := range work[t] {
			if n.taken || n.alive {
				d := n.det
				d.Score = n.score
				emitted = append(emitted, d)
			}
		}
		if len(emitted) > start {
			out[t] = slices.Clip(emitted[start:])
			slices.SortStableFunc(out[t], detect.ByScore)
		}
	}
	return out
}
