package synth

import "fmt"

// FaultKind enumerates the sensor/transport faults the injector
// (internal/faults) can stamp onto a frame. The taxonomy follows what edge
// camera deployments actually see: frames that never arrive, stale
// re-delivered frames, saturated or blacked-out exposures, analog noise
// bursts, and late frames that eat the per-frame compute budget.
type FaultKind uint8

const (
	// FaultNone marks a clean frame (the zero value).
	FaultNone FaultKind = iota

	// FaultDrop: the frame never arrived; there is no sensed content.
	FaultDrop

	// FaultStale: the transport re-delivered an earlier frame; the sensed
	// content is old while the scene has moved on.
	FaultStale

	// FaultBlackout: the sensor delivered a (near-)black frame — lens cap,
	// exposure failure, tunnel entry.
	FaultBlackout

	// FaultOverexpose: the sensor saturated; content is washed out in
	// proportion to Severity.
	FaultOverexpose

	// FaultNoise: an additive noise burst degrades the frame in proportion
	// to Severity.
	FaultNoise

	// FaultJitter: the frame arrived late by JitterMS; content is intact
	// but the latency counts against any per-frame deadline.
	FaultJitter

	numFaultKinds
)

// NumFaultKinds is the number of distinct fault kinds including FaultNone,
// sized for per-kind counter arrays.
const NumFaultKinds = int(numFaultKinds)

// String names the fault kind for reports.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultDrop:
		return "drop"
	case FaultStale:
		return "stale"
	case FaultBlackout:
		return "blackout"
	case FaultOverexpose:
		return "overexpose"
	case FaultNoise:
		return "noise"
	case FaultJitter:
		return "jitter"
	default:
		return fmt.Sprintf("fault(%d)", uint8(k))
	}
}

// Fault tags a frame with the sensor fault injected into it, so downstream
// accounting is exact: the runner and the health summary read the tag, and
// the behavioural detector degrades its response accordingly.
type Fault struct {
	Kind FaultKind

	// Severity in [0, 1] grades partial faults (overexposure, noise).
	Severity float64

	// SourceIndex is the frame index whose content a stale frame
	// re-delivered (FaultStale only).
	SourceIndex int

	// JitterMS is the extra arrival latency of a late frame (FaultJitter
	// only); it counts against any per-frame deadline budget.
	JitterMS float64
}

// SensorObservable reports whether a deployed system can recognise the
// fault from the frame stream alone, without ground truth: a missing frame
// is self-evident, a black frame is one mean-intensity check away, and a
// duplicated frame is caught by differencing against the previous frame.
// Partial degradations (overexposure, noise) are not reliably separable
// from hard scenes, so a runner must cope with them rather than detect
// them. All nil-receiver (clean-frame) queries return the benign answer.
func (f *Fault) SensorObservable() bool {
	if f == nil {
		return false
	}
	switch f.Kind {
	case FaultDrop, FaultStale, FaultBlackout:
		return true
	}
	return false
}

// QualityFactor is the multiplicative penalty the fault applies to the
// detector's per-object detection probability. Frames with no sensed
// content (drop, blackout) carry no detectable objects at all; partial
// faults scale with severity.
func (f *Fault) QualityFactor() float64 {
	if f == nil {
		return 1
	}
	switch f.Kind {
	case FaultDrop, FaultBlackout:
		return 0
	case FaultOverexpose:
		return 1 - float64(0.75*f.Severity)
	case FaultNoise:
		return 1 - float64(0.55*f.Severity)
	}
	return 1
}

// FPFactor is the multiplicative adjustment the fault applies to the
// clutter false-positive intensity: empty frames spawn nothing, washed-out
// frames suppress background detail, and noise bursts activate extra
// spurious responses.
func (f *Fault) FPFactor() float64 {
	if f == nil {
		return 1
	}
	switch f.Kind {
	case FaultDrop, FaultBlackout:
		return 0
	case FaultOverexpose:
		return 1 - float64(0.5*f.Severity)
	case FaultNoise:
		return 1 + float64(0.8*f.Severity)
	}
	return 1
}

// ContentFault reports whether the fault corrupts the sensed content (as
// opposed to FaultJitter, which only delays an intact frame). The health
// accounting uses it to measure frames-to-recover runs.
func (f *Fault) ContentFault() bool {
	return f != nil && f.Kind != FaultNone && f.Kind != FaultJitter
}
