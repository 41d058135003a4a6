package detect

import (
	"encoding/binary"
	"math"
	"testing"
)

// decodeBoxes deserialises an arbitrary byte stream into detections, eight
// bytes per float field so the fuzzer can reach every bit pattern —
// including NaN, ±Inf, subnormals and inverted (x2 < x1) boxes.
func decodeBoxes(data []byte) []Detection {
	const fields = 6 // x1 y1 x2 y2 score class
	n := len(data) / (8 * fields)
	if n > 512 {
		n = 512 // bound the work, not the value space
	}
	dets := make([]Detection, 0, n)
	f := func(i int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	for k := 0; k < n; k++ {
		base := k * fields
		dets = append(dets, Detection{
			Box:   Box{X1: f(base), Y1: f(base + 1), X2: f(base + 2), Y2: f(base + 3)},
			Score: f(base + 4),
			Class: int(int16(binary.LittleEndian.Uint16(data[(base+5)*8:]))),
		})
	}
	return dets
}

// FuzzNMS asserts NMS never panics, keeps its output contract and returns
// exactly what the struct-sorting oracle (nmsStructSort) does on fully
// degenerate inputs: NaN/Inf coordinates and scores, inverted and
// zero-area boxes, negative classes, hostile thresholds.
func FuzzNMS(f *testing.F) {
	f.Add([]byte{}, 0.3, 300)
	f.Add(make([]byte, 8*6*3), 0.3, 300)
	nan := make([]byte, 8*6*2)
	for i := 0; i < len(nan); i += 8 {
		binary.LittleEndian.PutUint64(nan[i:], 0x7ff8000000000001) // NaN
	}
	f.Add(nan, math.Inf(1), -1)
	f.Add([]byte("degenerate boxes are still boxes....................."), -0.5, 0)

	f.Fuzz(func(t *testing.T, data []byte, iouThreshold float64, topK int) {
		dets := decodeBoxes(data)
		kept := NMS(dets, iouThreshold, topK)
		sameDetections(t, "NMS against the struct sort", kept, nmsStructSort(dets, iouThreshold, topK))
		if len(kept) > len(dets) {
			t.Fatalf("NMS invented detections: %d in, %d out", len(dets), len(kept))
		}
		if topK > 0 && len(kept) > topK {
			t.Fatalf("NMS kept %d > topK %d", len(kept), topK)
		}
		for _, d := range kept {
			if v := IoU(d.Box, d.Box); v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("IoU self-overlap out of [0,1]: %v for %v", v, d.Box)
			}
		}
	})
}
