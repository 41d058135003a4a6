package seqnms

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

func TestChainAverageRescoring(t *testing.T) {
	// One object tracked over three frames with scores 0.9 / 0.3 / 0.6:
	// average rescoring lifts the weak middle member to 0.6.
	frames := [][]detect.Detection{
		{{Box: box(0, 0, 20), Class: 1, Score: 0.9}},
		{{Box: box(1, 0, 20), Class: 1, Score: 0.3}},
		{{Box: box(2, 0, 20), Class: 1, Score: 0.6}},
	}
	out := Apply(frames, Options{})
	for tIdx, dets := range out {
		if len(dets) != 1 {
			t.Fatalf("frame %d has %d detections", tIdx, len(dets))
		}
		if math.Abs(dets[0].Score-0.6) > 1e-12 {
			t.Fatalf("frame %d score %v, want chain average 0.6", tIdx, dets[0].Score)
		}
	}
}

func TestUnlinkedDetectionsKeepScores(t *testing.T) {
	// Flickering false positives at unrelated positions never link.
	frames := [][]detect.Detection{
		{{Box: box(0, 0, 10), Class: 0, Score: 0.4}},
		{{Box: box(500, 500, 10), Class: 0, Score: 0.5}},
	}
	out := Apply(frames, Options{})
	if out[0][0].Score != 0.4 || out[1][0].Score != 0.5 {
		t.Fatal("unlinked detections must keep their scores")
	}
}

func TestDifferentClassesNeverLink(t *testing.T) {
	frames := [][]detect.Detection{
		{{Box: box(0, 0, 20), Class: 0, Score: 0.9}},
		{{Box: box(0, 0, 20), Class: 1, Score: 0.1}},
	}
	out := Apply(frames, Options{})
	if out[1][0].Score != 0.1 {
		t.Fatal("cross-class link changed a score")
	}
}

func TestSuppressionRemovesOverlaps(t *testing.T) {
	// A strong track plus a weak same-class near-duplicate in frame 1:
	// once the track is selected, the duplicate is suppressed entirely.
	frames := [][]detect.Detection{
		{{Box: box(0, 0, 20), Class: 1, Score: 0.9},
			{Box: box(2, 2, 20), Class: 1, Score: 0.2}},
		{{Box: box(1, 0, 20), Class: 1, Score: 0.8}},
	}
	out := Apply(frames, Options{})
	if len(out[0]) != 1 {
		t.Fatalf("frame 0 kept %d detections, want 1 (duplicate suppressed)", len(out[0]))
	}
}

func TestBestChainWinsOverGreedyFrame(t *testing.T) {
	// Frame-local best (0.95 singleton) vs a 3-frame track summing higher:
	// the DP must pick the track first, but the singleton must survive
	// (it does not overlap the track).
	frames := [][]detect.Detection{
		{{Box: box(0, 0, 20), Class: 1, Score: 0.5}, {Box: box(200, 200, 20), Class: 1, Score: 0.95}},
		{{Box: box(1, 0, 20), Class: 1, Score: 0.5}},
		{{Box: box(2, 0, 20), Class: 1, Score: 0.5}},
	}
	out := Apply(frames, Options{})
	// Track members average to 0.5; singleton stays 0.95.
	found := false
	for _, d := range out[0] {
		if d.Score == 0.95 {
			found = true
		}
	}
	if !found {
		t.Fatal("non-overlapping singleton must survive")
	}
	if out[2][0].Score != 0.5 {
		t.Fatalf("track end score %v", out[2][0].Score)
	}
}

func TestEmptyAndSingleFrame(t *testing.T) {
	if out := Apply(nil, Options{}); len(out) != 0 {
		t.Fatal("nil input must give empty output")
	}
	out := Apply([][]detect.Detection{{}}, Options{})
	if len(out) != 1 || len(out[0]) != 0 {
		t.Fatal("empty frame must stay empty")
	}
	single := Apply([][]detect.Detection{{{Box: box(0, 0, 10), Class: 0, Score: 0.7}}}, Options{})
	if single[0][0].Score != 0.7 {
		t.Fatal("singleton keeps its score")
	}
}

func TestInputNotMutated(t *testing.T) {
	frames := [][]detect.Detection{
		{{Box: box(0, 0, 20), Class: 1, Score: 0.9}},
		{{Box: box(1, 0, 20), Class: 1, Score: 0.3}},
	}
	Apply(frames, Options{})
	if frames[1][0].Score != 0.3 {
		t.Fatal("Apply must not mutate its input")
	}
}

// Properties: frame count preserved, output counts never exceed input,
// scores stay within [min, max] of the input scores, output sorted.
func TestApplyInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nF := 1 + rng.Intn(6)
		frames := make([][]detect.Detection, nF)
		lo, hi := 1.0, 0.0
		for t := range frames {
			for k := 0; k < rng.Intn(5); k++ {
				s := rng.Float64()
				if s < lo {
					lo = s
				}
				if s > hi {
					hi = s
				}
				frames[t] = append(frames[t], detect.Detection{
					Box:   box(rng.Float64()*100, rng.Float64()*100, 10+rng.Float64()*20),
					Class: rng.Intn(2), Score: s,
				})
			}
		}
		out := Apply(frames, Options{})
		if len(out) != nF {
			return false
		}
		for t := range out {
			if len(out[t]) > len(frames[t]) {
				return false
			}
			for i, d := range out[t] {
				if d.Score < lo-1e-9 || d.Score > hi+1e-9 {
					return false
				}
				if i > 0 && out[t][i-1].Score < d.Score {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
