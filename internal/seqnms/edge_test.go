package seqnms

import (
	"math"
	"reflect"
	"testing"

	"adascale/internal/detect"
)

// TestApplyDegenerateInputs drives Apply through the shapes a real pipeline
// produces at its edges: no snippet at all, frames with no detections, and
// a single-frame snippet where no temporal link is possible.
func TestApplyDegenerateInputs(t *testing.T) {
	cases := []struct {
		name   string
		frames [][]detect.Detection
	}{
		{"nil snippet", nil},
		{"empty snippet", [][]detect.Detection{}},
		{"empty frames", [][]detect.Detection{{}, {}, {}}},
		{"nil frames", [][]detect.Detection{nil, nil}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := Apply(tc.frames, Options{})
			if len(out) != len(tc.frames) {
				t.Fatalf("frame count changed: %d → %d", len(tc.frames), len(out))
			}
			for i, dets := range out {
				if len(dets) != 0 {
					t.Fatalf("frame %d invented %d detections", i, len(dets))
				}
			}
		})
	}
}

// TestApplySingleFrame: with one frame every chain has length 1, so
// rescoring leaves scores untouched and nothing that does not overlap gets
// suppressed.
func TestApplySingleFrame(t *testing.T) {
	frames := [][]detect.Detection{{
		{Box: box(0, 0, 20), Class: 1, Score: 0.9},
		{Box: box(100, 100, 20), Class: 2, Score: 0.4},
	}}
	out := Apply(frames, Options{})
	if len(out) != 1 || len(out[0]) != 2 {
		t.Fatalf("got %d frames / %d detections", len(out), len(out[0]))
	}
	if math.Abs(out[0][0].Score-0.9) > 1e-12 || math.Abs(out[0][1].Score-0.4) > 1e-12 {
		t.Fatalf("singleton chains changed scores: %+v", out[0])
	}
}

// TestApplyTiedScoresDeterministic: detections with identical scores must
// come out in a stable order (the sort is stable over the input order), and
// repeated runs over the same input must agree exactly — the property the
// golden conformance traces depend on.
func TestApplyTiedScoresDeterministic(t *testing.T) {
	frames := [][]detect.Detection{{
		{Box: box(0, 0, 20), Class: 1, Score: 0.5},
		{Box: box(200, 0, 20), Class: 2, Score: 0.5},
		{Box: box(400, 0, 20), Class: 3, Score: 0.5},
	}}
	first := Apply(frames, Options{})
	if len(first[0]) != 3 {
		t.Fatalf("disjoint tied detections lost: %d of 3 kept", len(first[0]))
	}
	for i, want := range []int{1, 2, 3} {
		if first[0][i].Class != want {
			t.Fatalf("tied scores reordered: got classes %+v", first[0])
		}
	}
	for i := 0; i < 5; i++ {
		if again := Apply(frames, Options{}); !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d disagrees with first:\n%+v\nvs\n%+v", i, again, first)
		}
	}
}

// TestApplyTiedOverlapSuppressed: two same-class, same-score boxes on top
// of each other are one object; the chain keeps one and suppresses the
// other.
func TestApplyTiedOverlapSuppressed(t *testing.T) {
	frames := [][]detect.Detection{{
		{Box: box(0, 0, 20), Class: 1, Score: 0.7},
		{Box: box(1, 0, 20), Class: 1, Score: 0.7},
	}}
	out := Apply(frames, Options{})
	if len(out[0]) != 1 {
		t.Fatalf("near-duplicate tied detections: kept %d, want 1", len(out[0]))
	}
	if math.Abs(out[0][0].Score-0.7) > 1e-12 {
		t.Fatalf("survivor rescored to %v, want 0.7", out[0][0].Score)
	}
}

// TestApplyAllocsIndependentOfChains: the nodes, DP tables and output are
// allocated once per snippet, not once per extracted chain or per frame. A
// snippet of six detections a frame in six classes' worth of disjoint places
// links into many short chains (a jump every third frame breaks each track);
// what Apply allocates — one array each for the nodes, best, prev and the
// emitted detections, their four per-frame index slices and the chain — must
// stay the same constant however many frames and chains it has (127 chains
// at 12 frames). With the tables inside the loop the 12-frame snippet cost 26
// more for each of its 24 chains, 794 in all; with per-frame tables, 12 a
// frame.
func TestApplyAllocsIndependentOfChains(t *testing.T) {
	const perFrame, perSnippet = 6, 9
	for _, frames := range []int{12, 48} {
		snippet := make([][]detect.Detection, frames)
		for f := range snippet {
			for k := 0; k < perFrame; k++ {
				x := float64(100*k + 40*(f/3%2)) // the track jumps every third frame
				snippet[f] = append(snippet[f], detect.Detection{
					Box: box(x, 0, 20), Class: k % 3, Score: 0.3 + 0.1*float64(k),
				})
			}
		}
		chains := 0
		for _, dets := range Apply(snippet, Options{}) {
			chains += len(dets)
		}
		if chains != frames*perFrame {
			t.Fatalf("snippet is meant to keep all %d detections, kept %d", frames*perFrame, chains)
		}
		if got := testing.AllocsPerRun(20, func() { Apply(snippet, Options{}) }); got > perSnippet {
			t.Fatalf("Apply allocates %v times on a %d-frame snippet, want <= %d", got, frames, perSnippet)
		}
	}
}
