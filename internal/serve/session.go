package serve

import (
	"adascale/internal/adascale"
	"adascale/internal/synth"
)

// session is one admitted video stream: its lane of the frame step
// (resilient scale-state session and ledger), its bounded frame queue, and
// what the report keeps of it. All access happens on the scheduler's
// event-loop goroutine; only the compute (detector + regressor forward)
// leaves it.
type session struct {
	Lane

	// queue is the bounded per-stream FIFO of frames that have arrived
	// but not been dispatched, with the configured depth enforced at push.
	queue FrameQueue

	// inflight is non-nil while one frame of this stream is being served;
	// streams are strictly sequential (frame k+1's scale depends on frame
	// k's regressor output), so at most one frame is in flight and inflight
	// always points at rec, the session's one record, reused frame by frame.
	inflight *inflightFrame
	rec      inflightFrame

	outputs []adascale.FrameOutput // allocated at the stream's frame count
	dropped []*synth.Frame
}

// inflightFrame tracks a frame from its first dispatch until its
// completion event — across retries.
type inflightFrame struct {
	frame     *synth.Frame
	plan      adascale.FramePlan
	arrivalMS float64
	startMS   float64 // first dispatch instant (virtual ms)

	// res delivers the worker's compute result (the lane's job's channel);
	// nil for skipped frames (sensor-observable faults never reach a worker),
	// for breaker-shed propagation-only frames and in model-only runs.
	res <-chan Result

	// Supervision state.
	dispID       int     // current dispatch ID (0 = not dispatched right now)
	worker       int     // virtual worker of the current dispatch (-1 = none)
	completionMS float64 // scheduled completion instant of the current dispatch
	watchdogMS   float64 // watchdog instant of the current dispatch (stallWorker)
	serviceMS    float64 // modelled detector-path service time (reused on retry)
	shed         bool    // current dispatch bypasses the detector (breaker open)
	attempts     int     // failed dispatches so far
	retryReady   bool    // backoff elapsed; waiting for a free worker
	firstFailMS  float64 // first dispatch-failure instant (-1 = never failed)
}

// ready reports whether the session has a dispatchable frame.
func (s *session) ready() bool { return s.inflight == nil && s.queue.Len() > 0 }
