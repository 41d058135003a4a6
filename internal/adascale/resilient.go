package adascale

import (
	"fmt"
	"math"
	"strings"

	"adascale/internal/detect"
	"adascale/internal/regressor"
	"adascale/internal/rfcn"
	"adascale/internal/simclock"
	"adascale/internal/synth"
)

// This file is the graceful-degradation wrapper around Algorithm 1. The
// plain AdaScale loop assumes a pristine camera feed and a well-behaved
// regressor; deployed vision systems get neither. A ResilientSession keeps
// producing detections — degraded, not absent — through a fixed fallback
// order (the degradation ladder):
//
//  1. Sensor-observable faults (dropped / stale / blacked-out frames, see
//     synth.Fault.SensorObservable) never reach the detector: the last
//     good detections are propagated with a confidence decay.
//  2. A detector pass that comes back empty on a degraded frame
//     (overexposure, noise burst) also propagates the last good
//     detections instead of emitting nothing.
//  3. Every regressor prediction is validated: out-of-range t is clamped;
//     a non-finite t falls back to the last scale that produced
//     detections, then to the InitialScale default.
//  4. A per-frame deadline (modelled runtime, internal/simclock.Budget)
//     forces the next-lower test scale while the rolling budget is
//     exceeded, and relaxes one rung at a time when headroom returns.
//  5. A panicking snippet runner is recovered into a structured error with
//     placeholder outputs (RunDatasetPartial), so partial results survive.
//
// Every frame carries a Health record, so no frame is ever emitted without
// detections or explicit degradation accounting.

// Fallback identifies which rung of the degradation ladder produced a
// frame's output.
type Fallback uint8

const (
	// FallbackNone: the normal detect→regress path ran.
	FallbackNone Fallback = iota

	// FallbackPropagate: last-good detections were propagated in place of
	// running the detector on garbage (or in place of an empty result on a
	// degraded frame).
	FallbackPropagate

	// FallbackEmpty: propagation was wanted but there were no last-good
	// detections (or the propagation horizon was exhausted); the frame
	// explicitly emits no detections.
	FallbackEmpty

	// FallbackLastScale: the regressor prediction was invalid and the next
	// frame reuses the last scale that produced detections.
	FallbackLastScale

	// FallbackDefaultScale: the prediction was invalid with no last-good
	// scale to fall back to; the next frame uses InitialScale.
	FallbackDefaultScale

	// FallbackPanic: the snippet runner panicked; this is a recovered
	// placeholder output (RunDatasetPartial).
	FallbackPanic

	numFallbacks
)

// NumFallbacks sizes per-rung counter arrays.
const NumFallbacks = int(numFallbacks)

// String names the fallback rung for reports.
func (f Fallback) String() string {
	switch f {
	case FallbackNone:
		return "none"
	case FallbackPropagate:
		return "propagate"
	case FallbackEmpty:
		return "empty"
	case FallbackLastScale:
		return "last-scale"
	case FallbackDefaultScale:
		return "default-scale"
	case FallbackPanic:
		return "panic"
	default:
		return fmt.Sprintf("fallback(%d)", uint8(f))
	}
}

// Health is one frame's fault and degradation accounting.
type Health struct {
	// Fault is the injected fault observed on the frame (synth.FaultNone
	// for a clean frame).
	Fault synth.FaultKind

	// Fallback is the degradation-ladder rung that produced the output.
	Fallback Fallback

	// Propagated marks detections carried over from the last good frame.
	Propagated bool

	// PredictionClamped marks an invalid (non-finite or out-of-range)
	// regressor prediction that was clamped or replaced.
	PredictionClamped bool

	// DeadlineForced marks a frame whose test scale was forced down by the
	// per-frame deadline budget.
	DeadlineForced bool

	// RecoveredAfter is set on the first content-clean frame after a run
	// of degraded frames: the length of that run (frames-to-recover).
	RecoveredAfter int
}

// Degraded reports whether the frame needed any rung of the ladder.
func (h Health) Degraded() bool {
	return h.Fault != synth.FaultNone || h.Fallback != FallbackNone ||
		h.Propagated || h.PredictionClamped || h.DeadlineForced
}

// ResilientConfig tunes the degradation ladder.
type ResilientConfig struct {
	// DeadlineMS is the per-frame modelled-runtime deadline; 0 disables
	// deadline enforcement.
	DeadlineMS float64
}

// DefaultResilientConfig returns the standard ladder tuning: no deadline.
func DefaultResilientConfig() ResilientConfig { return ResilientConfig{} }

const (
	// propagateDecay is the per-propagated-frame confidence decay applied
	// to carried-over detections.
	propagateDecay = 0.9
	// maxPropagate bounds consecutive propagated frames before the ladder
	// gives up and emits an explicitly-empty frame (stale detections
	// eventually do more harm than good).
	maxPropagate = 12
)

// nextLowerScale returns the largest S_reg scale strictly below s (s if
// already at the bottom); the deadline enforcement walks S_reg.
func nextLowerScale(s int) int {
	for _, v := range regressor.SReg {
		if v < s {
			return v
		}
	}
	return s
}

// nextHigherScale returns the smallest S_reg scale strictly above s (s if
// already at the top).
func nextHigherScale(s int) int {
	for i := len(regressor.SReg) - 1; i >= 0; i-- {
		if regressor.SReg[i] > s {
			return regressor.SReg[i]
		}
	}
	return s
}

// ResilientSession is the per-stream state of the degradation ladder: the
// temporally-consistent scale schedule (target scale, deadline cap), the
// last-good detections that propagation rungs re-emit, and the rolling
// deadline budget. ResilientRunner drives one session per snippet; the
// serving layer (internal/serve) keeps one long-lived session per video
// stream and feeds it frame by frame.
//
// A session is strictly sequential — Plan and Finish must alternate in
// frame order on a single goroutine. It is NOT safe for concurrent use;
// concurrency comes from running independent sessions on independent
// streams.
type ResilientSession struct {
	cfg      ResilientConfig
	overhead float64
	cost     *simclock.Model
	st       SessionCheckpoint // the ladder state; Checkpoint and Restore copy it
}

// NewResilientSession creates a fresh session for one stream, costed by the
// detector's model; kernels is the regressor's branch kernel set.
// A session is a plain value: copying a fresh one is how the serving layer
// fills its recycled slab of sessions.
func NewResilientSession(cost *simclock.Model, kernels []int, cfg ResilientConfig) *ResilientSession {
	s := &ResilientSession{cfg: cfg, cost: cost, overhead: cost.RegressorMS(kernels)}
	s.Reset()
	return s
}

// Reset returns the session to its just-constructed state so it can be
// reused for a new stream: target scale back to InitialScale, deadline cap
// released, last-good detections and scale cleared, budget emptied.
// Without the reset, detections and scale state from the previous stream
// would leak into the first frames of the next one.
func (s *ResilientSession) Reset() {
	s.st = SessionCheckpoint{TargetScale: InitialScale, ScaleCap: regressor.MaxScale}
}

// Overhead returns the per-frame regressor overhead the session charges on
// detector frames (CostMS's middle term). Kept for
// benchmark/layer_adascale.go, which may not be edited; do not add callers.
func (s *ResilientSession) Overhead() float64 { return s.overhead }

// SessionCheckpoint is the complete ladder state of a ResilientSession:
// everything the next frame's Plan/Finish depend on, and the value the
// session itself holds. A checkpoint taken after frame k, restored into a
// fresh session, makes that session serve frame k+1 onward exactly as the
// original would have, budget bits included — the property that lets the
// serving supervisor migrate a stream to a new session (a stand-in for a
// healthy node) after a node failure without losing scale-ladder state or
// the last-good detections it propagates.
type SessionCheckpoint struct {
	// TargetScale, ScaleCap and LastGoodScale are the scale-ladder state
	// (the next frame's target, the deadline-enforcement cap, and the last
	// scale that produced detections; 0 = none yet).
	TargetScale, ScaleCap, LastGoodScale int

	// LastDets are the detections the propagation rungs re-emit.
	LastDets []detect.Detection

	// Propagated and DegradedRun are the consecutive-propagation and
	// frames-to-recover counters.
	Propagated, DegradedRun int

	// Budget is the rolling deadline budget.
	Budget simclock.Budget
}

// Checkpoint captures the session's ladder state. The returned checkpoint
// is independent of the session: mutating the session afterwards does not
// alter it.
func (s *ResilientSession) Checkpoint() SessionCheckpoint {
	cp := s.st
	cp.LastDets = append([]detect.Detection(nil), cp.LastDets...)
	return cp
}

// Restore replaces the session's ladder state with the checkpoint's. The
// checkpoint is not retained: restoring the same checkpoint into two
// sessions gives two independent streams.
func (s *ResilientSession) Restore(cp SessionCheckpoint) {
	s.st = cp
	s.st.LastDets = append([]detect.Detection(nil), cp.LastDets...)
}

// FramePlan is the scheduling decision for one frame: the scale to test at
// and whether the detector pass is skipped (rung 1: sensor-observable
// fault). The serving layer uses it to cost the frame before dispatching
// the compute to a worker; Finish consumes it to complete the frame.
type FramePlan struct {
	// Scale is the applied test scale (target capped by the deadline cap).
	Scale int

	// Skip marks a sensor-observable fault: the detector never runs and
	// the frame costs only fixed per-frame bookkeeping.
	Skip bool

	// JitterMS is the frame's extra arrival latency (FaultJitter).
	JitterMS float64

	health Health // partial accounting (Fault, DeadlineForced)
}

// Plan opens frame f: steps the deadline cap (rung 4, with the asymmetric
// hysteresis), applies it to the target scale, and decides whether the
// detector runs at all (rung 1). It must be followed by exactly one Finish
// for the same frame.
func (s *ResilientSession) Plan(f *synth.Frame) (p FramePlan) {
	p, s.st.ScaleCap = s.Peek(f)
	return p
}

// Peek is Plan without its side effect: the plan Plan would make for f now
// and the scale cap it would step to, the session left as it is (the serving
// scheduler computes a stream's next frame ahead at that plan).
func (s *ResilientSession) Peek(f *synth.Frame) (p FramePlan, scaleCap int) {
	if f.Fault != nil {
		p.health.Fault = f.Fault.Kind
		p.JitterMS = f.Fault.JitterMS
	}

	// Rung 4: deadline enforcement. While the rolling budget is exceeded,
	// tighten the scale cap one rung; relax one rung only with wide
	// headroom (> 50% of the deadline) — the asymmetric hysteresis keeps
	// the cap from oscillating across a rung whose cost sits just under
	// the deadline.
	scaleCap = s.st.ScaleCap
	if d := s.cfg.DeadlineMS; d > 0 {
		if s.st.Budget.Exceeded(d) {
			scaleCap = nextLowerScale(scaleCap)
		} else if s.st.Budget.Headroom(d) > 0.5*d && scaleCap < regressor.MaxScale {
			scaleCap = nextHigherScale(scaleCap)
		}
	}
	p.Scale = s.st.TargetScale
	if p.Scale > scaleCap {
		p.Scale = scaleCap
		p.health.DeadlineForced = true
	}

	// Rung 1: sensor-observable faults never reach the detector.
	p.Skip = f.Fault.SensorObservable()
	return p, scaleCap
}

// propagate re-emits the last good detections with confidence decay, or an
// explicitly-empty frame once the horizon is exhausted (rungs 1 and 2).
func (s *ResilientSession) propagate(h *Health) []detect.Detection {
	if len(s.st.LastDets) == 0 || s.st.Propagated >= maxPropagate {
		h.Fallback = FallbackEmpty
		s.st.Propagated++
		return nil
	}
	s.st.Propagated++
	decay := math.Pow(propagateDecay, float64(s.st.Propagated))
	out := make([]detect.Detection, len(s.st.LastDets))
	for i, d := range s.st.LastDets {
		d.Score *= decay
		out[i] = d
	}
	h.Fallback = FallbackPropagate
	h.Propagated = true
	return out
}

// Finish closes the frame opened by Plan: validates the regressor
// prediction (rung 3), applies propagation (rungs 1/2), updates the
// last-good state and charges chargeMS against the deadline budget. For a
// skipped plan r and t are ignored (pass nil, 0). The output keeps nothing
// of r, so the caller releases r afterwards. chargeMS is the frame's
// cost as the budget should see it — modelled runtime for the offline
// runner, end-to-end latency for the serving layer, whose deadline is a
// latency SLO rather than a compute budget.
func (s *ResilientSession) Finish(f *synth.Frame, p FramePlan, r *rfcn.Result, t float64, chargeMS float64) FrameOutput {
	h := p.health
	if p.Skip || r == nil {
		dets := s.propagate(&h)
		s.st.DegradedRun++
		s.st.Budget.Charge(chargeMS)
		return FrameOutput{
			Frame: f, Scale: p.Scale,
			Detections: dets,
			DetectorMS: s.cost.BaseMS,
			Health:     h,
		}
	}

	dets := r.PlainDetections()

	// Rung 3: validate the prediction for the next frame before emitting,
	// so the fallback is visible on the frame that caused it. Out-of-range
	// t is normal operation (DecodeScale clips it, Eq. 3); only a
	// non-finite prediction is a fault.
	if math.IsNaN(t) || math.IsInf(t, 0) {
		h.PredictionClamped = true
		if s.st.LastGoodScale > 0 {
			h.Fallback = FallbackLastScale
			s.st.TargetScale = s.st.LastGoodScale
		} else {
			h.Fallback = FallbackDefaultScale
			s.st.TargetScale = InitialScale
		}
	} else {
		s.st.TargetScale = regressor.DecodeScale(t, p.Scale)
	}

	// Rung 2: an empty result propagates rather than emitting nothing
	// when the frame is content-degraded, or when we were tracking
	// objects a moment ago (detector flicker: in continuous video a
	// sudden empty set after non-empty ones is itself a fault signal).
	if len(dets) == 0 && (f.Fault.ContentFault() || len(s.st.LastDets) > 0) {
		dets = s.propagate(&h)
	} else if len(dets) > 0 {
		s.st.LastDets = dets
		s.st.LastGoodScale = p.Scale
		s.st.Propagated = 0
	}

	if f.Fault.ContentFault() {
		s.st.DegradedRun++
	} else {
		if s.st.DegradedRun > 0 {
			h.RecoveredAfter = s.st.DegradedRun
		}
		s.st.DegradedRun = 0
	}

	s.st.Budget.Charge(chargeMS)
	return FrameOutput{
		Frame: f, Scale: p.Scale,
		Detections: dets,
		DetectorMS: r.RuntimeMS,
		OverheadMS: s.overhead,
		Health:     h,
	}
}

// CostMS is the frame's modelled service time under plan p — the one place
// a frame is costed: fixed bookkeeping for a skipped frame, otherwise the
// detector at the planned scale plus the regressor overhead, plus the
// frame's arrival jitter either way.
func (s *ResilientSession) CostMS(f *synth.Frame, p FramePlan) float64 {
	if p.Skip {
		return s.cost.BaseMS + p.JitterMS
	}
	return s.cost.DetectMS(f.W, f.H, p.Scale) + s.overhead + p.JitterMS
}

// ShedCostMS is a shed frame's service time: flow warping, or bookkeeping if p skips.
func (s *ResilientSession) ShedCostMS(p FramePlan) float64 {
	ms := s.cost.BaseMS + p.JitterMS
	if !p.Skip {
		ms += s.cost.FlowMS
	}
	return ms
}

// Computed is one frame's compute: the detector pass at the planned scale
// and the regressor's prediction from the same features.
type Computed struct {
	R *rfcn.Result
	T float64
}

// Compute runs the detector and the regressor for one frame — everything
// of Algorithm 1's step that happens between Plan and Finish — and recycles
// the feature map, so R.Features is nil on return.
func Compute(det *rfcn.Detector, reg *regressor.Regressor, f *synth.Frame, scale int) Computed {
	r := det.DetectWithFeatures(f, scale)
	t := reg.Predict(r.Features)
	det.Recycle(r.Features)
	r.Features = nil
	return Computed{R: r, T: t}
}

// Step runs one frame through the full ladder on the calling goroutine:
// Plan, Compute (unless the plan skips the detector), Finish with the
// frame's modelled cost. The offline runners are loops over Step.
func (s *ResilientSession) Step(det *rfcn.Detector, reg *regressor.Regressor, f *synth.Frame) FrameOutput {
	p := s.Plan(f)
	var c Computed
	if !p.Skip {
		c = Compute(det, reg, f, p.Scale)
	}
	out := s.Finish(f, p, c.R, c.T, s.CostMS(f, p))
	c.R.Release() // Finish copied the detections out
	return out
}

// runSession drives an already-reset session over one snippet.
func runSession(sess *ResilientSession, det *rfcn.Detector, reg *regressor.Regressor, sn *synth.Snippet) []FrameOutput {
	outputs := make([]FrameOutput, 0, len(sn.Frames))
	for i := range sn.Frames {
		outputs = append(outputs, sess.Step(det, reg, &sn.Frames[i]))
	}
	return outputs
}

// ResilientRunner returns a factory for the resilient pipeline; detector
// and regressor are cloned per worker like AdaScaleRunner. Each worker
// reuses one session across the snippets it processes, with a Reset
// between snippets so no scale or detection state leaks from one stream
// into the next (pinned by TestResilientSessionResetNoLeak).
func ResilientRunner(det *rfcn.Detector, reg *regressor.Regressor, cfg ResilientConfig) RunnerFactory {
	return func() SnippetRunner {
		d, r := det.Clone(), reg.Clone()
		sess := NewResilientSession(d.Cost(), r.Kernels, cfg)
		return func(sn *synth.Snippet) []FrameOutput {
			sess.Reset()
			return runSession(sess, d, r, sn)
		}
	}
}

// HealthSummary aggregates Health records over an output stream. It is a
// pure fold over the ordered stream, so for a deterministic runner it is
// identical at any worker count. The struct is comparable with ==.
type HealthSummary struct {
	// Frames is the total frame count; Degraded counts frames that needed
	// any ladder rung; WithDetections counts frames emitting ≥ 1 box.
	Frames         int
	Degraded       int
	WithDetections int

	// FaultCounts counts frames per observed fault kind (FaultNone =
	// clean); FallbackCounts counts frames per ladder rung.
	FaultCounts    [synth.NumFaultKinds]int
	FallbackCounts [NumFallbacks]int

	// PredictionClamped and DeadlineForced count their Health flags.
	PredictionClamped int
	DeadlineForced    int

	// Recoveries counts degraded→clean transitions; RecoveryFrames sums
	// the lengths of the degraded runs they ended.
	Recoveries     int
	RecoveryFrames int

	// Unaccounted counts frames that emitted no detections without any
	// degradation accounting — zero by construction for ResilientRunner (the
	// acceptance invariant), typically non-zero for naive runners on a
	// faulted stream.
	Unaccounted int
}

// Summarize folds the per-frame Health records of an output stream.
func Summarize(outputs []FrameOutput) HealthSummary {
	var s HealthSummary
	s.Add(outputs)
	return s
}

// Add folds more outputs into the summary. Every field is an integer
// count, so folding a run stream by stream equals summarizing the
// flattened run exactly — without building the flattened copy.
func (s *HealthSummary) Add(outputs []FrameOutput) {
	for i := range outputs {
		h := outputs[i].Health
		s.Frames++
		s.FaultCounts[h.Fault]++
		s.FallbackCounts[h.Fallback]++
		if h.Degraded() {
			s.Degraded++
		}
		if h.PredictionClamped {
			s.PredictionClamped++
		}
		if h.DeadlineForced {
			s.DeadlineForced++
		}
		if h.RecoveredAfter > 0 {
			s.Recoveries++
			s.RecoveryFrames += h.RecoveredAfter
		}
		if len(outputs[i].Detections) > 0 {
			s.WithDetections++
		} else if !h.Degraded() && len(outputs[i].Frame.GroundTruth()) > 0 {
			s.Unaccounted++
		}
	}
}

// MeanRecoveryFrames returns the average length of a degraded run that
// ended in recovery (0 when none ended).
func (s HealthSummary) MeanRecoveryFrames() float64 {
	if s.Recoveries == 0 {
		return 0
	}
	return float64(s.RecoveryFrames) / float64(s.Recoveries)
}

// String renders the summary compactly for reports.
func (s HealthSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "frames=%d degraded=%d with-dets=%d", s.Frames, s.Degraded, s.WithDetections)
	for k := 1; k < synth.NumFaultKinds; k++ {
		if n := s.FaultCounts[k]; n > 0 {
			fmt.Fprintf(&b, " %v=%d", synth.FaultKind(k), n)
		}
	}
	for k := 1; k < NumFallbacks; k++ {
		if n := s.FallbackCounts[k]; n > 0 {
			fmt.Fprintf(&b, " fb/%v=%d", Fallback(k), n)
		}
	}
	if s.PredictionClamped > 0 {
		fmt.Fprintf(&b, " clamped=%d", s.PredictionClamped)
	}
	if s.DeadlineForced > 0 {
		fmt.Fprintf(&b, " deadline-forced=%d", s.DeadlineForced)
	}
	if s.Recoveries > 0 {
		fmt.Fprintf(&b, " recoveries=%d (mean %.1f frames)", s.Recoveries, s.MeanRecoveryFrames())
	}
	if s.Unaccounted > 0 {
		fmt.Fprintf(&b, " UNACCOUNTED=%d", s.Unaccounted)
	}
	return b.String()
}
