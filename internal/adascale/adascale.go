// Package adascale is the paper's deployment pipeline: Algorithm 1 (video
// object detection with adaptive scaling) plus the comparison methods of
// Sec. 4.3 — single-scale testing (SS), multi-scale multi-shot testing
// (MS/MS), and random-scale testing (MS/Random).
//
// Algorithm 1 exploits temporal consistency: the regressor reads the
// current frame's deep features (computed at the scale the frame was just
// detected at) and predicts the scale for the *next* frame; the first frame
// of every snippet starts at scale 600.
package adascale

import (
	"math/rand"

	"adascale/internal/detect"
	"adascale/internal/regressor"
	"adascale/internal/rfcn"
	"adascale/internal/synth"
)

// InitialScale is Algorithm 1's starting scale for every video snippet.
const InitialScale = 600

// FrameOutput is one frame's detection outcome plus cost accounting.
type FrameOutput struct {
	Frame *synth.Frame
	Scale int

	Detections []detect.Detection

	// DetectorMS is the modelled detection cost; OverheadMS is any extra
	// per-frame cost (scale regressor, flow); SeqNMSMS is the Seq-NMS
	// post-processing cost, kept separate so the tracer can attribute it
	// as its own pipeline stage.
	DetectorMS float64
	OverheadMS float64
	SeqNMSMS   float64

	// Health records the frame's fault/degradation accounting (resilient.go).
	// The zero value means "clean frame, no fallback".
	Health Health
}

// TotalMS returns the frame's full modelled runtime.
func (o FrameOutput) TotalMS() float64 { return o.DetectorMS + o.OverheadMS + o.SeqNMSMS }

// MeanRuntimeMS averages total per-frame runtime over outputs.
func MeanRuntimeMS(outputs []FrameOutput) float64 {
	if len(outputs) == 0 {
		return 0
	}
	var sum float64
	for _, o := range outputs {
		sum += o.TotalMS()
	}
	return sum / float64(len(outputs))
}

// MeanScale averages the tested scale over outputs.
func MeanScale(outputs []FrameOutput) float64 {
	if len(outputs) == 0 {
		return 0
	}
	var sum float64
	for _, o := range outputs {
		sum += float64(o.Scale)
	}
	return sum / float64(len(outputs))
}

// RunFixed detects every frame of the snippet at a fixed scale (the SS
// testing protocol; scale 600 reproduces the SS/SS and MS/SS baselines).
func RunFixed(det *rfcn.Detector, sn *synth.Snippet, scale int) []FrameOutput {
	outputs := make([]FrameOutput, 0, len(sn.Frames))
	for i := range sn.Frames {
		f := &sn.Frames[i]
		r := det.Detect(f, scale)
		outputs = append(outputs, FrameOutput{
			Frame: f, Scale: scale,
			Detections: r.PlainDetections(),
			DetectorMS: r.RuntimeMS,
		})
		r.Release()
	}
	return outputs
}

// RunAdaScale implements Algorithm 1. The regressor's per-frame overhead is
// charged according to its kernel set.
func RunAdaScale(det *rfcn.Detector, reg *regressor.Regressor, sn *synth.Snippet) []FrameOutput {
	overhead := det.Cost().RegressorMS(reg.Kernels)
	outputs := make([]FrameOutput, 0, len(sn.Frames))
	targetScale := InitialScale
	for i := range sn.Frames {
		f := &sn.Frames[i]
		// image = resize(image, targetScale); detect with deep features.
		r := det.DetectWithFeatures(f, targetScale)
		outputs = append(outputs, FrameOutput{
			Frame: f, Scale: targetScale,
			Detections: r.PlainDetections(),
			DetectorMS: r.RuntimeMS,
			OverheadMS: overhead,
		})
		// Regress t, invert Eq. 3 against the current base size, then
		// round and clip — the scale for the next frame.
		t := reg.Predict(r.Features)
		det.Recycle(r.Features)
		r.Features = nil
		r.Release()
		targetScale = regressor.DecodeScale(t, targetScale)
	}
	return outputs
}

// RunRandom detects each frame at a scale drawn uniformly from scales — the
// MS/Random control of Fig. 5/6 showing AdaScale's gains are not an
// artefact of merely varying the scale.
func RunRandom(det *rfcn.Detector, sn *synth.Snippet, scales []int, rng *rand.Rand) []FrameOutput {
	outputs := make([]FrameOutput, 0, len(sn.Frames))
	for i := range sn.Frames {
		f := &sn.Frames[i]
		scale := scales[rng.Intn(len(scales))]
		r := det.Detect(f, scale)
		outputs = append(outputs, FrameOutput{
			Frame: f, Scale: scale,
			Detections: r.PlainDetections(),
			DetectorMS: r.RuntimeMS,
		})
		r.Release()
	}
	return outputs
}

// RunMultiShot is MS/MS testing: every frame is detected at all the given
// scales and the union of detections is merged with NMS. Accuracy-oriented
// and expensive — the detector cost is the sum over scales.
func RunMultiShot(det *rfcn.Detector, sn *synth.Snippet, scales []int) []FrameOutput {
	outputs := make([]FrameOutput, 0, len(sn.Frames))
	var all []detect.Detection // union buffer, reused across frames
	for i := range sn.Frames {
		f := &sn.Frames[i]
		all = all[:0]
		var cost float64
		for _, s := range scales {
			r := det.Detect(f, s)
			all = r.AppendDetections(all)
			cost += r.RuntimeMS
			r.Release()
		}
		merged := detect.NMS(all, rfcn.NMSThreshold, rfcn.TopK)
		outputs = append(outputs, FrameOutput{
			Frame: f, Scale: scales[0],
			Detections: merged,
			DetectorMS: cost,
		})
	}
	return outputs
}
