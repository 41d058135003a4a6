// Package dff implements Deep Feature Flow (Zhu et al., CVPR 2017b) — the
// state-of-the-art video acceleration baseline the paper combines AdaScale
// with in Sec. 4.6 / Fig. 7. The expensive detection network runs only on
// key frames; intermediate frames reuse the key frame's outputs, propagated
// along optical flow estimated by a network an order of magnitude cheaper.
//
// Here the flow is real (block matching over rendered frames,
// internal/flow) and propagation operates on detections: boxes are warped
// by the measured motion, and confidence decays with propagation distance
// and flow residual — the same quality/speed trade the original system
// exhibits (accuracy sags as the key interval grows).
package dff

import (
	"math"

	"adascale/internal/adascale"
	"adascale/internal/detect"
	"adascale/internal/flow"
	"adascale/internal/raster"
	"adascale/internal/regressor"
	"adascale/internal/rfcn"
	"adascale/internal/synth"
)

// Config parameterises the DFF runner.
type Config struct {
	// KeyInterval is the key-frame period; values below 1 mean 1.
	KeyInterval int
}

// DefaultConfig returns the repository's operating point: a key frame
// every 5 frames, half the DFF paper's 10, because the VID-like snippets
// are 12 frames long and 5 keeps three key frames in each where 10 would
// leave two.
func DefaultConfig() Config { return Config{KeyInterval: 5} }

const (
	// flowScale is the test scale (shortest side, native convention) at
	// which frames are rendered for flow estimation; flow runs on images
	// an order of magnitude smaller than detection, like FlowNet's input.
	flowScale = 360

	// flowBlock and flowRadius parameterise the block matcher at the flow
	// render resolution.
	flowBlock, flowRadius = 8, 8

	// decayPerStep is the per-propagation-step confidence decay; flow
	// residual adds on top of it.
	decayPerStep = 0.02
)

// Run executes DFF over a snippet with key frames detected at a fixed
// scale. Non-key frames cost only flow estimation.
func Run(det *rfcn.Detector, sn *synth.Snippet, keyScale int, cfg Config) []adascale.FrameOutput {
	return run(det, nil, sn, keyScale, cfg)
}

// RunAdaptive composes DFF with AdaScale: key frames are detected at the
// adaptively regressed scale (the regressor reads the key frame's deep
// features and predicts the scale for the next key frame), non-key frames
// propagate. This is the paper's "DFF + AdaScale" Pareto point: an extra
// ~25% speedup at slightly better mAP.
func RunAdaptive(det *rfcn.Detector, reg *regressor.Regressor, sn *synth.Snippet, cfg Config) []adascale.FrameOutput {
	return run(det, reg, sn, adascale.InitialScale, cfg)
}

// Runner returns a factory for the fixed-scale DFF protocol. Each worker
// gets its own detector clone (key-frame detection drives the stateful
// backbone when composed with features; flow estimation is stateless).
func Runner(det *rfcn.Detector, keyScale int, cfg Config) adascale.RunnerFactory {
	return func() adascale.SnippetRunner {
		d := det.Clone()
		return func(sn *synth.Snippet) []adascale.FrameOutput { return Run(d, sn, keyScale, cfg) }
	}
}

// AdaptiveRunner returns a factory for DFF + AdaScale; detector and
// regressor are cloned per worker.
func AdaptiveRunner(det *rfcn.Detector, reg *regressor.Regressor, cfg Config) adascale.RunnerFactory {
	return func() adascale.SnippetRunner {
		d, r := det.Clone(), reg.Clone()
		return func(sn *synth.Snippet) []adascale.FrameOutput { return RunAdaptive(d, r, sn, cfg) }
	}
}

func run(det *rfcn.Detector, reg *regressor.Regressor, sn *synth.Snippet, keyScale int, cfg Config) []adascale.FrameOutput {
	if cfg.KeyInterval < 1 {
		cfg.KeyInterval = 1
	}
	renderShort := flowScale / det.Data.RenderDiv
	if renderShort < 16 {
		renderShort = 16
	}
	maxLong := rfcn.MaxLongSide * det.Data.RenderDiv

	outputs := make([]adascale.FrameOutput, 0, len(sn.Frames))
	var keyDets []detect.Detection // key-frame detections, native coords
	var keyRender *raster.Image
	targetScale := keyScale

	for i := range sn.Frames {
		f := &sn.Frames[i]
		if i%cfg.KeyInterval == 0 {
			// Key frame: full detection; when adaptive, the regressor reads
			// the same features for the next key frame's scale.
			out := adascale.FrameOutput{Frame: f, Scale: targetScale}
			var r *rfcn.Result
			if reg != nil {
				c := adascale.Compute(det, reg, f, targetScale)
				r, out.OverheadMS = c.R, det.Cost().RegressorMS(reg.Kernels)
				targetScale = regressor.DecodeScale(c.T, targetScale)
			} else {
				r = det.Detect(f, targetScale)
			}
			keyDets = r.PlainDetections()
			out.Detections, out.DetectorMS = keyDets, r.RuntimeMS
			r.Release()
			outputs = append(outputs, out)
			keyRender = f.Render(renderShort, maxLong, det.Data.RenderDiv)
			continue
		}

		// Non-key frame: estimate flow directly from the key frame so the
		// quantisation error of one match does not accumulate over the
		// interval; the search radius widens with temporal distance.
		steps := i % cfg.KeyInterval
		radius := flowRadius + 2*steps
		if radius > 20 {
			radius = 20
		}
		curRender := f.Render(renderShort, maxLong, det.Data.RenderDiv)
		fl, flErr := flow.Estimate(keyRender, curRender, flowBlock, radius)
		if flErr != nil {
			// Flow failed on a malformed frame pair: degrade to propagating
			// the key detections unwarped (decayed as usual) instead of
			// aborting the snippet.
			decay := math.Pow(1-decayPerStep, float64(steps))
			emitted := make([]detect.Detection, len(keyDets))
			for j, d := range keyDets {
				d.Score *= decay
				emitted[j] = d
			}
			outputs = append(outputs, adascale.FrameOutput{
				Frame: f, Scale: targetScale,
				Detections: emitted,
				DetectorMS: det.Cost().FlowMS,
				Health:     adascale.Health{Fallback: adascale.FallbackPropagate, Propagated: true},
			})
			continue
		}

		factor := raster.ScaleFactor(f.W, f.H, renderShort*det.Data.RenderDiv, maxLong) / float64(det.Data.RenderDiv)
		decay := math.Pow(1-decayPerStep, float64(steps)) *
			(1 - math.Min(0.05, 0.5*fl.MeanResidual()))
		if decay < 0 {
			decay = 0
		}
		emitted := make([]detect.Detection, len(keyDets))
		for j, d := range keyDets {
			d.Box = fl.WarpBox(d.Box.Scaled(factor)).Scaled(1 / factor)
			d.Score *= decay
			emitted[j] = d
		}

		outputs = append(outputs, adascale.FrameOutput{
			Frame: f, Scale: targetScale,
			Detections: emitted,
			DetectorMS: det.Cost().FlowMS,
		})
	}
	return outputs
}
